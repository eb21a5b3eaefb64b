package julienne

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
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
// clock and its math/rand/v2 streams.
func TestNoRandTime(t *testing.T) {
	exempt := []string{"benchmark/"}
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

// TestFacadeFunctionsHaveCallers keeps the public surface to what is
// called: every exported function of api.go must be named as
// julienne.<Name> by the gated benchmark (benchmark/*.go), README.md
// or a checked example (example_test.go). The facade's own tests do
// not count; a function only they reach belongs in an internal
// package or nowhere.
func TestFacadeFunctionsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	api, err := parser.ParseFile(fset, "api.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	called := map[string]bool{}
	files, err := filepath.Glob("benchmark/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(files, "example_test.go") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "julienne" {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`julienne\.(\w+)`).FindAllStringSubmatch(string(readme), -1) {
		called[m[1]] = true
	}
	for _, d := range api.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && !called[fn.Name.Name] {
			t.Errorf("%s: julienne.%s is named by no file of benchmark/, README.md or example_test.go; delete it or give it a caller",
				fset.Position(fn.Pos()), fn.Name.Name)
		}
	}
}

// TestQuickStartIsExample holds the quick starts of README.md and
// doc.go to the body of Example, which go test runs and checks against
// its // Output: lines, so both run as written. Whitespace is ignored.
func TestQuickStartIsExample(t *testing.T) {
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "example_test.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var body string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "Example" && fn.Recv == nil {
			body = string(src[fset.Position(fn.Body.Lbrace).Offset+1 : fset.Position(fn.Body.Rbrace).Offset])
		}
	}
	if body == "" {
		t.Fatal("example_test.go has no func Example")
	}
	squash := func(s string) string {
		return strings.Map(func(r rune) rune {
			if unicode.IsSpace(r) {
				return -1
			}
			return r
		}, s)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "\n## Quick start\n")
	_, rest, ok2 := strings.Cut(rest, "```go\n")
	block, _, ok3 := strings.Cut(rest, "```")
	if !ok || !ok2 || !ok3 {
		t.Fatal("README.md: no go block under ## Quick start")
	}
	if squash(block) != squash(body) {
		t.Errorf("README.md's quick start is not the body of Example:\n%s\nwant:\n%s", block, body)
	}

	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok = strings.Cut(string(doc), "// # Quick start\n")
	if !ok {
		t.Fatal("doc.go: no # Quick start heading")
	}
	var code strings.Builder // the first indented block under the heading
	for _, line := range strings.Split(rest, "\n") {
		if tab, ok := strings.CutPrefix(line, "//\t"); ok {
			code.WriteString(tab + "\n")
		} else if line != "//" && code.Len() > 0 {
			break
		}
	}
	if squash(code.String()) != squash(body) {
		t.Errorf("doc.go's quick start is not the body of Example:\n%s\nwant:\n%s", code.String(), body)
	}
}
