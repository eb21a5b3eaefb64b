// Package analysis is julienne's static-analysis suite: a small,
// self-contained clone of the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) plus the custom analyzers that
// mechanically enforce the framework's concurrency contracts (see
// DESIGN.md §8):
//
//   - atomicmix:   a field accessed via sync/atomic anywhere must be
//     accessed atomically everywhere
//   - atomicalign: 64-bit atomic fields must sit at 64-bit-aligned
//     offsets under a 32-bit memory layout
//   - tagdrift:    build-tag-paired files (race_on/race_off,
//     debug_on/debug_off) must declare matching signatures
//   - norandtime:  math/rand and bare time.Now are forbidden outside
//     the rng/harness/obs plumbing
//
// Every analyzer looks at one package at a time; there is no
// interprocedural layer. Contracts an API can carry itself are not
// policed here: metric names are typed obs handles, pooled scratch is
// scoped by parallel.WithScratch, serve's error→status mapping is one
// table, its admission slot and request context live inside one
// wrapper (serve.Server.query over admission.with), the one goroutine
// internal/parallel spawns is pinned by that package's panic table
// tests, and stale bucket-arena slices are poisoned by the
// julienne_debug build. Cancel-func pairing is stock `go vet`
// (lostcancel).
//
// The framework is built on the standard library alone (go/ast,
// go/types, and `go list -export` for import resolution) because this
// repository vendors no third-party modules; the types mirror
// go/analysis closely enough that the analyzers would port to the real
// framework by changing imports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single package through
// its Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in output and in suppression
	// comments (`//lint:ignore julvet/<name> reason`).
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer, mirroring go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's type-checked files under the active build
	// configuration.
	Files []*ast.File
	// IgnoredFiles are files in the package directory excluded by build
	// constraints: parsed (with comments) but not type-checked. The
	// tagdrift analyzer compares these against their active
	// counterparts.
	IgnoredFiles []*ast.File
	Pkg          *types.Package
	TypesInfo    *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [julvet/%s]", d.Pos, d.Message, d.Analyzer)
}

// ignoreRe matches the suppression directive handled by the driver:
// `//lint:ignore julvet/<name> <reason>`. A non-empty reason is
// mandatory — an undocumented suppression is itself reported.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+julvet/([a-z]+)\s*(.*)$`)

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	analyzer string
	file     string
	line     int
	reason   string
}

// RunAnalyzers applies every analyzer to every package, collects the
// diagnostics, filters the ones covered by //lint:ignore directives
// (same line or the line directly below the directive), and returns
// the survivors sorted by position. Malformed directives (missing
// reason), directives naming an analyzer that does not exist, and
// directives in active files that suppress nothing this run are
// reported as driver diagnostics.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	type supEntry struct {
		suppression
		active bool // in a type-checked file (stale directives only matter there)
		used   bool
	}
	var sups []*supEntry
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			s, bad := collectSuppressions(pkg.Fset, f)
			for _, sup := range s {
				sups = append(sups, &supEntry{suppression: sup, active: true})
			}
			diags = append(diags, bad...)
		}
		for _, f := range pkg.IgnoredFiles {
			s, bad := collectSuppressions(pkg.Fset, f)
			for _, sup := range s {
				sups = append(sups, &supEntry{suppression: sup})
			}
			diags = append(diags, bad...)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:     a,
				Fset:         pkg.Fset,
				Files:        pkg.Files,
				IgnoredFiles: pkg.IgnoredFiles,
				Pkg:          pkg.Types,
				TypesInfo:    pkg.Info,
				diags:        &diags,
			}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Message:  fmt.Sprintf("analyzer error: %v", err),
				})
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		matched := false
		for _, s := range sups {
			if supCovers(s.suppression, d) {
				s.used = true
				matched = true
			}
		}
		if !matched {
			kept = append(kept, d)
		}
	}
	// Stale-directive check (the unuseddirective driver pass): a
	// directive in an active file whose analyzer ran this time but
	// matched nothing is dead weight and gets reported, as does a
	// directive naming an analyzer that does not exist at all. Directives
	// for analyzers outside this run's set are left alone — a subset run
	// cannot tell whether they still earn their keep.
	runSet := map[string]bool{}
	for _, a := range analyzers {
		runSet[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, s := range sups {
		if !s.active || s.used {
			continue
		}
		pos := token.Position{Filename: s.file, Line: s.line}
		switch {
		case !known[s.analyzer]:
			kept = append(kept, Diagnostic{
				Analyzer: "driver",
				Pos:      pos,
				Message:  fmt.Sprintf("lint:ignore julvet/%s names an unknown analyzer", s.analyzer),
			})
		case runSet[s.analyzer]:
			kept = append(kept, Diagnostic{
				Analyzer: "driver",
				Pos:      pos,
				Message:  fmt.Sprintf("lint:ignore julvet/%s suppresses nothing; delete the stale directive", s.analyzer),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// collectSuppressions parses the //lint:ignore directives of one file.
// Directives without a reason are returned as diagnostics instead: the
// whole point of the mechanism is that deviations are documented.
func collectSuppressions(fset *token.FileSet, f *ast.File) ([]suppression, []Diagnostic) {
	var sups []suppression
	var bad []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			if strings.TrimSpace(m[2]) == "" {
				bad = append(bad, Diagnostic{
					Analyzer: "driver",
					Pos:      pos,
					Message:  fmt.Sprintf("lint:ignore julvet/%s directive is missing a reason", m[1]),
				})
				continue
			}
			sups = append(sups, suppression{
				analyzer: m[1],
				file:     pos.Filename,
				line:     pos.Line,
				reason:   strings.TrimSpace(m[2]),
			})
		}
	}
	return sups, bad
}

// supCovers reports whether one directive covers d: same analyzer and
// file, on d's own line or on the line directly above (the two
// placements gofmt keeps stable for trailing and standalone comments
// respectively).
func supCovers(s suppression, d Diagnostic) bool {
	if s.analyzer != d.Analyzer || s.file != d.Pos.Filename {
		return false
	}
	return s.line == d.Pos.Line || s.line == d.Pos.Line-1
}

// suppressed reports whether d is covered by any of the directives.
func suppressed(d Diagnostic, sups []suppression) bool {
	for _, s := range sups {
		if supCovers(s, d) {
			return true
		}
	}
	return false
}
