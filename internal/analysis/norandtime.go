package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoRandTime enforces the determinism and timing plumbing contracts:
//
//   - math/rand (and math/rand/v2) are forbidden everywhere except
//     internal/rng and the gated benchmark. Workloads draw randomness from internal/rng's
//     seeded splitmix64/xoshiro generators so every experiment,
//     property test, and benchmark is reproducible from its printed
//     seed; a stray math/rand import reintroduces global mutable state
//     that -race and the differential harness cannot replay.
//
//   - bare time.Now is forbidden outside internal/harness,
//     internal/obs and the gated benchmark. A wall-clock reading is
//     either harness.Time — one shot, what a CLI prints, and the only
//     clock internal/bench's measure reads, once per sample after its
//     warm-up — or a span or histogram of the obs recorder. measure is
//     the one function that turns repeated readings into a reported
//     number (fast-decile mean, median, quartile spread); an inline
//     time.Now measurement silently skips the warm-up, the repetition
//     and the statistics.
//
// Deliberate exceptions carry a `//lint:ignore julvet/norandtime
// reason` directive.
var NoRandTime = &Analyzer{
	Name: "norandtime",
	Doc:  "forbids math/rand imports and bare time.Now outside the rng/harness/obs plumbing",
	Run:  runNoRandTime,
}

// randAllowed/timeAllowed are the package-path suffixes exempt from
// each half of the check. The module's benchmark package is exempt
// from both by design: it measures the other layers from outside, so
// it owns its clock and seeds its own math/rand/v2 streams.
var (
	randAllowed = []string{"internal/rng", "benchmark"}
	timeAllowed = []string{"internal/harness", "internal/obs", "benchmark"}
)

func pathAllowed(path string, allowed []string) bool {
	for _, suffix := range allowed {
		if pkgPathEndsWith(path, suffix) {
			return true
		}
	}
	return false
}

func runNoRandTime(pass *Pass) error {
	path := pass.Pkg.Path()
	for _, f := range pass.Files {
		if !pathAllowed(path, randAllowed) {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == "math/rand" || p == "math/rand/v2" {
					pass.Reportf(imp.Pos(),
						"import of %s: use the seeded generators in internal/rng so runs are reproducible", p)
				}
			}
		}
		if pathAllowed(path, timeAllowed) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Now" {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			pass.Reportf(call.Pos(),
				"bare time.Now: read the clock through harness.Time (repeated measurement is internal/bench's measure) or the obs recorder")
			return true
		})
	}
	return nil
}
