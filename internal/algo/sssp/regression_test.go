package sssp

import (
	"fmt"
	"strings"
	"testing"

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

// A bucket id computed as bucket.ID(dist/delta) with no range check
// silently wraps modulo 2³² for distances at or above 2³²·∆ and
// corrupts the traversal order. The guard lives once, in the round
// body every bucketed entry point runs on; each must trip it.
func TestBucketOverflowGuard(t *testing.T) {
	g := hugeWeightPath(t)
	entries := map[string]func(){
		"DeltaStepping": func() { DeltaStepping(g, 0, 1, Options{}) },
		"WBFS":          func() { WBFS(g, 0, Options{}) },
	}
	for name, run := range entries {
		t.Run(name, func(t *testing.T) {
			defer func() {
				// The guard fires inside a parallel worker, so it may
				// arrive wrapped in a *parallel.PanicError.
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "exceeds the bucket id space") {
					t.Fatalf("%s(delta=1) on >32-bit distances: want the bucket-id overflow panic, got %q", name, msg)
				}
			}()
			run()
		})
	}
}

// With a delta large enough to keep bucket ids in range, the same graph
// must produce exact distances beyond 32 bits.
func TestHugeWeights(t *testing.T) {
	g := hugeWeightPath(t)
	w := int64(1<<31 - 1)
	want := []int64{0, w, 2 * w, 3 * w}
	for _, delta := range []int64{w, 1 << 32} {
		res := DeltaStepping(g, 0, delta, Options{})
		checkDists(t, "DeltaStepping", res.Dist, want)
	}
	res := DijkstraHeap(g, 0)
	checkDists(t, "DijkstraHeap", res.Dist, want)
}
