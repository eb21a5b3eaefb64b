package sssp

import (
	"fmt"
	"strings"
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/graph"
)

// hugeWeightPath builds a directed path 0→1→2→3 whose edges all carry
// the maximum representable weight, so shortest-path distances overflow
// 32 bits (3·(2³¹−1) ≈ 6.4e9).
func hugeWeightPath(t *testing.T) *graph.CSR {
	t.Helper()
	w := graph.Weight(1<<31 - 1)
	edges := []graph.Edge{{U: 0, V: 1, W: w}, {U: 1, V: 2, W: w}, {U: 2, V: 3, W: w}}
	opt := graph.DefaultBuild
	opt.Weighted = true
	return graph.FromEdges(4, edges, opt)
}

// DeltaSteppingLH used to compute bucket ids as bucket.ID(dist/delta)
// with no range check, so distances at or above 2³²·∆ silently wrapped
// modulo 2³² and corrupted the traversal order, while DeltaStepping
// guarded the case with a panic. The guard now lives once, in the wave
// driver every bucketed entry point runs on; each must trip it, with
// and without fusion.
func TestDeltaSteppingLHBucketOverflowGuard(t *testing.T) {
	g := hugeWeightPath(t)
	entries := map[string]func(Options){
		"DeltaStepping":   func(o Options) { DeltaStepping(g, 0, 1, o) },
		"WBFS":            func(o Options) { WBFS(g, 0, o) },
		"DeltaSteppingLH": func(o Options) { DeltaSteppingLH(g, 0, 1, o) },
	}
	for name, run := range entries {
		for _, opt := range []Options{{}, {Fusion: bucket.MaximalFusion()}} {
			t.Run(fmt.Sprintf("%s/fused=%t", name, opt.Fusion.Enabled()), func(t *testing.T) {
				defer func() {
					// The guard fires inside a parallel worker, so it may
					// arrive wrapped in a *parallel.PanicError.
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "exceeds the bucket id space") {
						t.Fatalf("%s(delta=1) on >32-bit distances: want the bucket-id overflow panic, got %q", name, msg)
					}
				}()
				run(opt)
			})
		}
	}
}

// With a delta large enough to keep bucket ids in range, the same graph
// must produce exact distances. The delta = 2³² leg pins a second
// discrepancy: splitLightHeavy used to cap the light threshold at 2³⁰,
// misclassifying edges with 2³⁰ < w ≤ ∆ as heavy; a heavy relaxation
// landing inside the current annulus was then treated as settled
// without ever exploring its edges, reporting reachable vertices as
// unreachable.
func TestDeltaSteppingLHHugeWeights(t *testing.T) {
	g := hugeWeightPath(t)
	w := int64(1<<31 - 1)
	want := []int64{0, w, 2 * w, 3 * w}
	for _, delta := range []int64{w, 1 << 32} {
		res := DeltaSteppingLH(g, 0, delta, Options{})
		checkDists(t, "DeltaSteppingLH", res.Dist, want)
	}
	res := DijkstraHeap(g, 0)
	checkDists(t, "DijkstraHeap", res.Dist, want)
}

// Fused DeltaSteppingLH used to drop a vertex its segment had already
// settled when a heavy relaxation from elsewhere in the fused span
// improved it afterwards: the vertex was treated as done, its edges
// stayed relaxed from the stale distance, and distances downstream came
// out too large (1,386 of 2,000 vertices wrong on this grid at ∆ = 4).
// Without fusion a heavy edge always leaves the annulus, so only fused
// spans — wider than one ∆ — can be hit.
func TestDeltaSteppingLHFusedHeavyIntoSpan(t *testing.T) {
	g := gen.UniformWeights(gen.Grid2D(40, 50), 1, 16, 7)
	want := DijkstraHeap(g, 0).Dist
	for _, fus := range []bucket.Fusion{{MaxFrontier: 64}, {MaxFrontier: 64, MaxSpan: 2}, bucket.MaximalFusion()} {
		for _, delta := range []int64{1, 2, 4, 8, 16} {
			res := DeltaSteppingLH(g, 0, delta, Options{Fusion: fus})
			checkDists(t, fmt.Sprintf("DeltaSteppingLH delta=%d %+v", delta, fus), res.Dist, want)
		}
	}
}
