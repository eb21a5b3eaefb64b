package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// fixtureDiags runs one analyzer over the fixture packages matching
// prefix, without want-comment checking, returning diagnosed lines
// keyed by base file name.
func fixtureDiags(t *testing.T, a *Analyzer, prefix string) map[string][]int {
	t.Helper()
	all, err := LoadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, pkg := range all {
		if pkg.Path == prefix || strings.HasPrefix(pkg.Path, prefix+"/") {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages matched %q", prefix)
	}
	out := map[string][]int{}
	for _, d := range RunAnalyzers(pkgs, []*Analyzer{a}) {
		base := filepath.Base(d.Pos.Filename)
		out[base] = append(out[base], d.Pos.Line)
	}
	return out
}

// TestInterprocFactsLoadBearing is the mutation test for the
// interprocedural layer as a whole: flipping factsEnabled off must
// silence exactly the diagnostics that exist only because obligations
// were followed through helper calls, while every purely lexical
// diagnostic keeps firing. If an analyzer stopped
// consulting the fact store, the "with facts" column would not move
// when the store is disabled and this test would fail.
func TestInterprocFactsLoadBearing(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		prefix   string
		file     string
		with     int // diagnostics with facts enabled
		without  int // diagnostics with facts disabled
	}{
		// Helper-mediated leaks disappear: without facts a helper call
		// is a conservative ownership transfer.
		{PanicGuard, "panicguard", "interproc.go", 3, 0},
		// ctxguard: the two helper-mediated leaks vanish; the direct
		// leak and the discard in a.go are lexical and stay.
		{CtxGuard, "ctxguard", "a.go", 3, 2},
		{CtxGuard, "ctxguard", "cross.go", 1, 0},
		// The lifetime direction does not use facts at all.
		{CtxGuard, "ctxguard", "store.go", 3, 3},
		// semabalance: direct acquires are lexical (a.go unchanged);
		// the SemaReleaseParams and admit-style obligations are not.
		{SemaBalance, "semabalance", "a.go", 2, 2},
		{SemaBalance, "semabalance", "helpers.go", 1, 0},
		{SemaBalance, "semabalance", "admit.go", 2, 0},
		// The lexical fixtures must not move at all.
		{PanicGuard, "panicguard", "parallel.go", 4, 4},
	}
	run := func(enabled bool) map[string]map[string][]int {
		t.Helper()
		factsEnabled = enabled
		defer func() { factsEnabled = true }()
		out := map[string]map[string][]int{}
		for _, c := range cases {
			if _, ok := out[c.prefix+"/"+c.analyzer.Name]; !ok {
				out[c.prefix+"/"+c.analyzer.Name] = fixtureDiags(t, c.analyzer, c.prefix)
			}
		}
		return out
	}
	with := run(true)
	without := run(false)
	for _, c := range cases {
		key := c.prefix + "/" + c.analyzer.Name
		if got := len(with[key][c.file]); got != c.with {
			t.Errorf("%s on %s/%s with facts: %d diagnostics at %v, want %d",
				c.analyzer.Name, c.prefix, c.file, got, with[key][c.file], c.with)
		}
		if got := len(without[key][c.file]); got != c.without {
			t.Errorf("%s on %s/%s without facts: %d diagnostics at %v, want %d",
				c.analyzer.Name, c.prefix, c.file, got, without[key][c.file], c.without)
		}
	}
}

// fixtureUnit loads the whole fixture tree into one Unit.
func fixtureUnit(t *testing.T) *Unit {
	t.Helper()
	pkgs, err := LoadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	return NewUnit(pkgs)
}

// TestComputedFacts pins the fact extractors against the fixture
// helpers: each interprocedural fixture relies on exactly these
// entries, so a silently-empty fact store cannot pass.
func TestComputedFacts(t *testing.T) {
	u := fixtureUnit(t)
	facts := u.Facts.funcs
	check := func(key string, want func(FuncFacts) bool, desc string) {
		t.Helper()
		f, ok := facts[key]
		if !ok {
			t.Errorf("no facts for %s (want %s); have keys %v", key, desc, factKeys(facts))
			return
		}
		if !want(f) {
			t.Errorf("facts for %s = %+v, want %s", key, f, desc)
		}
	}
	check("semabalance/serve.(server).admit",
		func(f FuncFacts) bool { return f.ReleaseResult == 1 && f.OKResult == 2 },
		"ReleaseResult=1 OKResult=2")
	check("ctxguard/helper.Stop",
		func(f FuncFacts) bool { return len(f.CancelsParams) == 1 && f.CancelsParams[0] == 0 },
		"CancelsParams=[0]")
	check("panicguard/guards.RunGuarded",
		func(f FuncFacts) bool { return f.InstallsRecover },
		"InstallsRecover")
	check("semabalance/serve.finish",
		func(f FuncFacts) bool { return len(f.SemaReleaseParams) == 1 && f.SemaReleaseParams[0] == 0 },
		"SemaReleaseParams=[0]")
	// Negative space: helpers that provably do NOT discharge must have
	// no facts — they are what give the analyzers teeth.
	for _, key := range []string{
		"ctxguard/helper.Keep",
		"semabalance/serve.note",
		"panicguard/guards.RunBare",
	} {
		if f, ok := facts[key]; ok {
			t.Errorf("unexpected facts for %s: %+v (the fixture relies on its absence)", key, f)
		}
	}
}

func factKeys(m map[string]FuncFacts) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestFactsRoundTrip pins the wire format: exporting each fixture
// package's facts and importing them into a fresh store must
// reproduce the entries exactly. The analyzers already only read
// round-tripped facts (NewUnit serializes per package before the store
// becomes visible); this test makes a format regression fail loudly
// rather than as a silent loss of interprocedural diagnostics.
func TestFactsRoundTrip(t *testing.T) {
	u := fixtureUnit(t)
	for _, pkg := range u.Pkgs {
		data, err := u.Facts.ExportPackage(pkg.Path)
		if err != nil {
			t.Fatalf("exporting %s: %v", pkg.Path, err)
		}
		fresh := newFacts()
		if err := fresh.ImportPackage(data); err != nil {
			t.Fatalf("importing %s: %v", pkg.Path, err)
		}
		for k, f := range u.Facts.funcs {
			if !strings.HasPrefix(k, pkg.Path+".") {
				continue
			}
			got, ok := fresh.funcs[k]
			if !ok {
				t.Errorf("%s: fact %s lost in the round trip", pkg.Path, k)
				continue
			}
			if !got.equal(f) {
				t.Errorf("%s: fact %s changed in the round trip: %+v -> %+v", pkg.Path, k, f, got)
			}
		}
		for k := range fresh.funcs {
			if _, ok := u.Facts.funcs[k]; !ok {
				t.Errorf("%s: round trip invented fact %s", pkg.Path, k)
			}
		}
	}
}

// TestRealRepoFacts loads the real serve package through the
// export-data loader and asserts the facts its contracts depend on. This
// is the anti-vacuity check: `julvet ./...` exiting clean is only
// meaningful if the engine actually derives these summaries from the
// production code.
func TestRealRepoFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	pkgs, err := Load(LoadConfig{}, "julienne/internal/serve")
	if err != nil {
		t.Fatalf("loading real packages: %v", err)
	}
	u := NewUnit(pkgs)
	admit, ok := u.Facts.funcs["julienne/internal/serve.(Server).admit"]
	if !ok || admit.ReleaseResult != 1 || admit.OKResult != 2 {
		t.Errorf("serve.(Server).admit facts = %+v, want ReleaseResult=1 OKResult=2 (got=%v)", admit, ok)
	}
}

// TestUnusedDirectiveDriver pins the driver check: a directive whose
// analyzer ran but suppressed nothing is stale; a directive naming an
// unknown analyzer is always reported; a live directive is silent.
func TestUnusedDirectiveDriver(t *testing.T) {
	all, err := LoadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, pkg := range all {
		if strings.HasPrefix(pkg.Path, "unuseddirective") {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("no unuseddirective fixture packages")
	}

	diags := RunAnalyzers(pkgs, []*Analyzer{NoRandTime})
	var stale, unknown, other []Diagnostic
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "suppresses nothing"):
			stale = append(stale, d)
		case strings.Contains(d.Message, "unknown analyzer"):
			unknown = append(unknown, d)
		default:
			other = append(other, d)
		}
	}
	if len(other) != 0 {
		t.Errorf("unexpected diagnostics: %v", other)
	}
	if len(stale) != 1 || stale[0].Analyzer != "driver" || !strings.Contains(stale[0].Message, "julvet/norandtime") {
		t.Errorf("stale-directive diagnostics = %v, want one driver diagnostic for julvet/norandtime", stale)
	}
	if len(unknown) != 1 || !strings.Contains(unknown[0].Message, "julvet/nosuchanalyzer") {
		t.Errorf("unknown-analyzer diagnostics = %v, want one for julvet/nosuchanalyzer", unknown)
	}

	// Run-set filtering: with norandtime not running, its directives
	// cannot be judged stale — only the unknown name is reported.
	diags = RunAnalyzers(pkgs, []*Analyzer{AtomicMix})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown analyzer") {
		t.Errorf("diagnostics with norandtime excluded = %v, want only the unknown-analyzer one", diags)
	}
}
