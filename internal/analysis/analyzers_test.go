package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// Each analyzer is pinned against the GOPATH-style fixtures under
// testdata/src/<name>/...: every `// want "re"` comment must be
// matched by a diagnostic on that line, and no diagnostic may appear
// without one. The clean packages in each tree double as
// false-positive regressions.

func TestAtomicMix(t *testing.T) {
	RunTest(t, "testdata/src", AtomicMix, "atomicmix")
}

func TestAtomicAlign(t *testing.T) {
	RunTest(t, "testdata/src", AtomicAlign, "atomicalign")
}

func TestTagDrift(t *testing.T) {
	RunTest(t, "testdata/src", TagDrift, "tagdrift")
}

// TestTagDriftRealPairs pins the analyzer against verbatim copies of
// the repository's real tag pairs (parallel's race pair, bucket's and
// ligra's julienne_debug pairs): the shipped halves must compare clean.
func TestTagDriftRealPairs(t *testing.T) {
	RunTest(t, "testdata/src", TagDrift, "tagdrift/real")
}

func TestNoRandTime(t *testing.T) {
	RunTest(t, "testdata/src", NoRandTime, "norandtime")
}

// TestSuppressionRequiresReason pins the driver rule that a
// //lint:ignore directive without a reason is itself a diagnostic and
// suppresses nothing.
func TestSuppressionRequiresReason(t *testing.T) {
	const src = `package p

//lint:ignore julvet/norandtime
var x = 1

//lint:ignore julvet/atomicmix written before the workers start
var y = 2
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sups, bad := collectSuppressions(fset, f)
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "missing a reason") {
		t.Fatalf("bad directives = %v, want one missing-reason diagnostic", bad)
	}
	if bad[0].Analyzer != "driver" || bad[0].Pos.Line != 3 {
		t.Fatalf("missing-reason diagnostic = %+v, want driver diagnostic on line 3", bad[0])
	}
	if len(sups) != 1 || sups[0].analyzer != "atomicmix" || sups[0].line != 6 {
		t.Fatalf("suppressions = %+v, want the documented atomicmix directive on line 6", sups)
	}
}

// TestSuppressionPlacement pins which lines a directive covers: its own
// line and the line directly below, nothing else.
func TestSuppressionPlacement(t *testing.T) {
	sup := suppression{analyzer: "norandtime", file: "f.go", line: 10, reason: "r"}
	diag := func(line int) Diagnostic {
		return Diagnostic{Analyzer: "norandtime", Pos: token.Position{Filename: "f.go", Line: line}}
	}
	if !suppressed(diag(10), []suppression{sup}) || !suppressed(diag(11), []suppression{sup}) {
		t.Error("directive must cover its own line and the line below")
	}
	if suppressed(diag(9), []suppression{sup}) || suppressed(diag(12), []suppression{sup}) {
		t.Error("directive must not cover lines at distance > 1")
	}
	other := Diagnostic{Analyzer: "atomicmix", Pos: token.Position{Filename: "f.go", Line: 10}}
	if suppressed(other, []suppression{sup}) {
		t.Error("directive must only cover its named analyzer")
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
