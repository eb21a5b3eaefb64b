package julienne

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoRandTime keeps randomness and the wall clock in the packages
// that own them, over every non-test Go file of the module:
//
//   - math/rand (or math/rand/v2) is imported only by internal/rng.
//     Workloads draw from its seeded generators, so every run replays
//     from its printed seed; a stray math/rand brings back global state
//     that neither -race nor the differential suites can replay.
//   - time.Now is read only in internal/harness (a CLI's single shot,
//     and internal/bench's samples through harness.Time) and
//     internal/obs (spans, histograms, Recorder.Clock). An inline
//     time.Now measurement skips the warm-up, the repetition and the
//     statistics, and is not free when telemetry is off.
//
// Exempt: benchmark/ measures the system from outside, so it owns its
// clock and its math/rand/v2 streams; examples/ show only the public
// API and cannot import internal/harness.
func TestNoRandTime(t *testing.T) {
	exempt := []string{"benchmark/", "examples/"}
	randOK := []string{"internal/rng/"}
	timeOK := []string{"internal/harness/", "internal/obs/"}
	under := func(path string, dirs []string) bool {
		for _, d := range dirs {
			if strings.HasPrefix(path, d) {
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || under(path, exempt) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		timeName := ""
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case (p == "math/rand" || p == "math/rand/v2") && !under(path, randOK):
				t.Errorf("%s: imports %s; use the seeded generators in internal/rng", fset.Position(imp.Pos()), p)
			case p == "time" && !under(path, timeOK):
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		if timeName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName {
					t.Errorf("%s: bare time.Now; read the clock through harness.Time or the obs recorder", fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
