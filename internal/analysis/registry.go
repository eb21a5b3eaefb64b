package analysis

// All returns every analyzer in the suite, in reporting order. The
// julvet multichecker runs exactly this list; the stock toolchain
// passes (copylocks, atomic, nilfunc, lostcancel, ...)
// run alongside via `go vet` in `make lint`.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicMix,
		AtomicAlign,
		TagDrift,
		NoRandTime,
	}
}

// ByName resolves a comma-separated analyzer subset; unknown names
// return nil and the full list of valid names.
func ByName(names []string) ([]*Analyzer, []string) {
	valid := map[string]*Analyzer{}
	var validNames []string
	for _, a := range All() {
		valid[a.Name] = a
		validNames = append(validNames, a.Name)
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := valid[n]
		if !ok {
			return nil, validNames
		}
		out = append(out, a)
	}
	return out, validNames
}
