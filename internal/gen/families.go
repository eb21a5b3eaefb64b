package gen

import (
	"math"

	"julienne/internal/graph"
)

// Family is one graph-generator family behind a uniform (n, m, seed)
// constructor, so harnesses (the property tests in internal/proptest,
// fuzzers, benchmark sweeps) can enumerate every workload shape this
// package produces without hard-coding the individual signatures.
//
// Build treats n and m as targets: generators that fix their own edge
// count (Path, Star, Complete, Grid2D, ...) ignore m, and generators
// that sample edges may realize slightly fewer after dedup. Build must
// accept any n ≥ 0 and m ≥ 0 and stay deterministic in seed.
type Family struct {
	// Name identifies the family in reports ("rmat-sym", "grid", ...).
	Name string
	// Symmetric reports whether Build returns undirected graphs.
	Symmetric bool
	// Build returns a graph with ~n vertices and ~m edges.
	Build func(n, m int, seed uint64) *graph.CSR
}

// Families enumerates every generator family in this package, both
// directed and undirected where the generator supports it. The list
// is append-only: property tests iterate it, so a new generator added
// here is automatically cross-checked against the oracles.
func Families() []Family {
	fams := []Family{
		{Name: "erdos-renyi", Symmetric: false,
			Build: func(n, m int, seed uint64) *graph.CSR { return ErdosRenyi(n, m, false, seed) }},
		{Name: "erdos-renyi-sym", Symmetric: true,
			Build: func(n, m int, seed uint64) *graph.CSR { return ErdosRenyi(n, m, true, seed) }},
		{Name: "rmat", Symmetric: false,
			Build: func(n, m int, seed uint64) *graph.CSR { return RMAT(n, m, false, seed) }},
		{Name: "rmat-sym", Symmetric: true,
			Build: func(n, m int, seed uint64) *graph.CSR { return RMAT(n, m, true, seed) }},
		{Name: "chung-lu", Symmetric: false,
			Build: func(n, m int, seed uint64) *graph.CSR { return ChungLu(n, m, 2.5, false, seed) }},
		{Name: "chung-lu-sym", Symmetric: true,
			Build: func(n, m int, seed uint64) *graph.CSR { return ChungLu(n, m, 2.5, true, seed) }},
		{Name: "random-regular-sym", Symmetric: true,
			Build: func(n, m int, seed uint64) *graph.CSR {
				d := 1
				if n > 0 {
					d = 1 + m/n
				}
				return RandomRegular(n, d, true, seed)
			}},
		{Name: "grid", Symmetric: true,
			Build: func(n, m int, seed uint64) *graph.CSR {
				rows := int(math.Sqrt(float64(n)))
				if rows < 1 {
					rows = 1
				}
				cols := n / rows
				if cols < 1 {
					cols = 1
				}
				return Grid2D(rows, cols)
			}},
		{Name: "path", Symmetric: true,
			Build: func(n, m int, seed uint64) *graph.CSR { return Path(n) }},
		{Name: "cycle", Symmetric: true,
			Build: func(n, m int, seed uint64) *graph.CSR { return Cycle(n) }},
		{Name: "star", Symmetric: true,
			Build: func(n, m int, seed uint64) *graph.CSR { return Star(n) }},
		{Name: "complete", Symmetric: true,
			Build: func(n, m int, seed uint64) *graph.CSR {
				// K_n has n(n-1) directed edges; cap n so the densest
				// family stays proportionate to the requested m.
				if n > 48 {
					n = 48
				}
				return Complete(n)
			}},
	}
	// Normalize the n = 0 corner uniformly: several generators would
	// otherwise panic drawing from an empty vertex range.
	for i := range fams {
		fams[i].Build = emptyGuard(fams[i].Build, fams[i].Symmetric)
	}
	return fams
}

// emptyGuard short-circuits n <= 0 to the empty graph.
func emptyGuard(build func(n, m int, seed uint64) *graph.CSR, symmetric bool) func(n, m int, seed uint64) *graph.CSR {
	return func(n, m int, seed uint64) *graph.CSR {
		if n <= 0 {
			opt := graph.DefaultBuild
			opt.Symmetrize = symmetric
			return graph.FromEdges(0, nil, opt)
		}
		return build(n, m, seed)
	}
}

// SymmetricFamilies filters Families down to undirected output, the
// input contract of k-core and connected components.
func SymmetricFamilies() []Family {
	all := Families()
	out := all[:0]
	for _, f := range all {
		if f.Symmetric {
			out = append(out, f)
		}
	}
	return out
}
