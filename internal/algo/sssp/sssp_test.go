package sssp

import (
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/harness"
	"julienne/internal/parallel"
	"julienne/internal/rng"
)

func checkDists(t *testing.T, name string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", name, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: dist[%d]=%d want %d", name, v, got[v], want[v])
		}
	}
}

func testGraphs() map[string]graph.Graph {
	return map[string]graph.Graph{
		"grid-log":     gen.LogWeights(gen.Grid2D(25, 30), 1),
		"grid-heavy":   gen.HeavyWeights(gen.Grid2D(20, 20), 2),
		"rmat-log":     gen.LogWeights(gen.RMAT(1<<10, 10000, true, 3), 3),
		"rmat-heavy":   gen.HeavyWeights(gen.RMAT(1<<10, 10000, true, 4), 4),
		"er-directed":  gen.UniformWeights(gen.ErdosRenyi(500, 3000, false, 5), 1, 50, 5),
		"path-heavy":   gen.HeavyWeights(gen.Path(200), 6),
		"star":         gen.UniformWeights(gen.Star(100), 1, 9, 7),
		"disconnected": gen.UniformWeights(gen.ErdosRenyi(400, 300, true, 8), 1, 20, 8),
	}
}

func TestAllImplementationsMatchDijkstra(t *testing.T) {
	for name, g := range testGraphs() {
		src := graph.Vertex(0)
		want := DijkstraHeap(g, src).Dist
		checkDists(t, name+"/bellman-ford", BellmanFord(g, src).Dist, want)
		checkDists(t, name+"/wbfs", WBFS(g, src, Options{}).Dist, want)
		for _, delta := range []int64{1, 2, 16, 1024, 100000} {
			checkDists(t, name+"/delta", DeltaStepping(g, src, delta, Options{}).Dist, want)
			checkDists(t, name+"/delta-bins", DeltaSteppingBins(g, src, delta).Dist, want)
		}
	}
}

func TestBucketConfigurations(t *testing.T) {
	g := gen.HeavyWeights(gen.RMAT(1<<10, 8000, true, 9), 9)
	want := DijkstraHeap(g, 0).Dist
	for _, opt := range []Options{
		{Buckets: bucket.Options{OpenBuckets: 1}},
		{Buckets: bucket.Options{OpenBuckets: 4}},
		{Buckets: bucket.Options{OpenBuckets: 4096}},
	} {
		checkDists(t, "delta-cfg", DeltaStepping(g, 0, 5000, opt).Dist, want)
		checkDists(t, "wbfs-cfg", WBFS(g, 0, opt).Dist, want)
	}
}

func TestNonZeroSource(t *testing.T) {
	g := gen.LogWeights(gen.Grid2D(15, 15), 11)
	src := graph.Vertex(117)
	want := DijkstraHeap(g, src).Dist
	checkDists(t, "wbfs", WBFS(g, src, Options{}).Dist, want)
	checkDists(t, "delta", DeltaStepping(g, src, 7, Options{}).Dist, want)
	checkDists(t, "bins", DeltaSteppingBins(g, src, 7).Dist, want)
	checkDists(t, "bf", BellmanFord(g, src).Dist, want)
}

func TestUnreachableVertices(t *testing.T) {
	// Two components: 0-1-2 and 3-4.
	g := gen.UniformWeights(graph.FromEdges(5,
		[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}},
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true}), 1, 5, 1)
	res := WBFS(g, 0, Options{})
	if res.Dist[3] != Unreachable || res.Dist[4] != Unreachable {
		t.Fatalf("unreachable not flagged: %v", res.Dist)
	}
	if res.Dist[0] != 0 {
		t.Fatalf("dist[src]=%d", res.Dist[0])
	}
	if res.Dist[1] == Unreachable || res.Dist[2] == Unreachable {
		t.Fatalf("reachable flagged unreachable: %v", res.Dist)
	}
}

func TestSingleVertex(t *testing.T) {
	g := gen.UniformWeights(graph.FromEdges(1, nil, graph.BuildOptions{Symmetrize: true}), 1, 2, 1)
	res := DeltaStepping(g, 0, 10, Options{})
	if len(res.Dist) != 1 || res.Dist[0] != 0 {
		t.Fatalf("single vertex: %v", res.Dist)
	}
}

func TestDeltaEquivalences(t *testing.T) {
	// ∆ = 1 must equal WBFS; huge ∆ behaves like Bellman-Ford (one
	// annulus) — all must agree anyway.
	g := gen.LogWeights(gen.RMAT(1<<9, 4000, true, 21), 21)
	want := DijkstraHeap(g, 0).Dist
	checkDists(t, "wbfs-eq", WBFS(g, 0, Options{}).Dist, want)
	checkDists(t, "delta-inf", DeltaStepping(g, 0, 1<<40, Options{}).Dist, want)
}

func TestZeroWeightEdges(t *testing.T) {
	// Zero-weight edges keep targets in the same bucket; the
	// reinsertion path must still converge.
	g := gen.UniformWeights(gen.Grid2D(10, 10), 0, 4, 31)
	want := DijkstraHeap(g, 0).Dist
	checkDists(t, "zero-w", DeltaStepping(g, 0, 3, Options{}).Dist, want)
	checkDists(t, "zero-w-wbfs", WBFS(g, 0, Options{}).Dist, want)
	checkDists(t, "zero-w-bf", BellmanFord(g, 0).Dist, want)
}

func TestPanics(t *testing.T) {
	unweighted := gen.Grid2D(3, 3)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("unweighted", func() { WBFS(unweighted, 0, Options{}) })
	w := gen.LogWeights(unweighted, 1)
	mustPanic("bad delta", func() { DeltaStepping(w, 0, 0, Options{}) })
	mustPanic("bad source", func() { WBFS(w, 99, Options{}) })
}

func TestWorkBoundsWBFS(t *testing.T) {
	// Theorem 4.2: wBFS does O(r_src + m) work. Bucket moves are at
	// most one per edge relaxation and relaxations are at most m on
	// integer weights (each edge's target distance decreases at most...
	// in practice; we assert the generous 2m bound the analysis gives).
	g := gen.LogWeights(gen.RMAT(1<<11, 20000, true, 41), 41)
	res := WBFS(g, 0, Options{})
	m := g.NumEdges()
	if res.BucketStats.Moved > 2*m {
		t.Fatalf("wBFS bucket moves %d exceed 2m=%d", res.BucketStats.Moved, 2*m)
	}
	// Every round processes a strictly increasing bucket for ∆=1, so
	// rounds <= eccentricity + 1 <= max finite distance + 1.
	var maxDist int64
	for _, d := range res.Dist {
		if d != Unreachable && d > maxDist {
			maxDist = d
		}
	}
	if res.Rounds > maxDist+1 {
		t.Fatalf("wBFS rounds %d exceed r_src+1=%d", res.Rounds, maxDist+1)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := gen.LogWeights(gen.Grid2D(12, 12), 51)
	res := DeltaStepping(g, 0, 4, Options{})
	if res.Rounds == 0 || res.Relaxations == 0 || res.EdgesTraversed == 0 {
		t.Fatalf("stats empty: %+v", res)
	}
	if res.BucketStats.Extracted == 0 {
		t.Fatal("bucket stats empty")
	}
	seq := DijkstraHeap(g, 0)
	if seq.EdgesTraversed == 0 || seq.Relaxations == 0 {
		t.Fatal("dijkstra stats empty")
	}
}

func TestDeterministicDistances(t *testing.T) {
	g := gen.HeavyWeights(gen.ChungLu(1000, 8000, 2.5, true, 61), 61)
	a := DeltaStepping(g, 0, 32768, Options{})
	b := DeltaStepping(g, 0, 32768, Options{})
	checkDists(t, "determinism", a.Dist, b.Dist)
}

// TestAllocsScaleWithRoundsNotVertices pins the allocation shape of
// whole steady-state wBFS and ∆-stepping runs at P=1: a constant number
// of objects, whatever the rounds and vertices. A round allocates
// nothing, and the run's two destinations and its bucket structure,
// chunks included, are borrowed for the run, so a run that follows one
// as large allocates its answer — relaxed in place — and its closures:
// 11 objects in every case here, over 2,051 rounds of wBFS and 1,416
// of ∆-stepping on the grid. The bytes are pinned too: the answer plus
// at most 64 KiB.
func TestAllocsScaleWithRoundsNotVertices(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if bucket.DebugEnabled {
		t.Skip("julienne_debug bookkeeping allocates by design")
	}
	old := parallel.SetProcs(1)
	defer parallel.SetProcs(old)

	grid, rmat := gen.Grid2D(256, 256), gen.RMAT(1<<15, 1<<18, true, 3)
	gridLight, gridHeavy := gen.LogWeights(grid, 3), gen.HeavyWeights(grid, 3)
	rmatLight, rmatHeavy := gen.LogWeights(rmat, 3), gen.HeavyWeights(rmat, 3)
	cases := []struct {
		name string
		n    int
		run  func()
	}{
		{"WBFS/grid", grid.NumVertices(), func() { WBFS(gridLight, 0, Options{}) }},
		{"DeltaStepping/grid", grid.NumVertices(), func() { DeltaStepping(gridHeavy, 0, 32768, Options{}) }},
		{"WBFS/rmat", rmat.NumVertices(), func() { WBFS(rmatLight, 0, Options{}) }},
		{"DeltaStepping/rmat", rmat.NumVertices(), func() { DeltaStepping(rmatHeavy, 0, 32768, Options{}) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(3, c.run); allocs > 32 {
			t.Errorf("%s: %v allocs per run, want ≤ 32", c.name, allocs)
		}
		answer := uint64(8 * c.n)
		if got := harness.AllocBytesPerRun(3, c.run); got > answer+64<<10 {
			t.Errorf("%s: %d bytes per run, want ≤ the %d-byte answer + 64 KiB", c.name, got, answer)
		}
	}
}

// TestBktOfShiftMatchesDivide: bktOf shifts when ∆ is a power of two
// and divides otherwise, and both give ⌊dist/∆⌋ — over random
// distances, distances near inf, and bucket-boundary neighbours — with
// the same panic once the bucket id leaves the id space.
func TestBktOfShiftMatchesDivide(t *testing.T) {
	r := rng.New(31)
	for _, c := range []struct {
		delta int64
		pow2  bool
	}{{1, true}, {2, true}, {1024, true}, {32768, true}, {3, false}, {1000, false}, {100000, false}} {
		w := &waves{}
		w.setDelta(c.delta)
		if w.pow2 != c.pow2 {
			t.Fatalf("∆=%d: pow2 = %v, want %v", c.delta, w.pow2, c.pow2)
		}
		ud := uint64(c.delta)
		// The largest distance whose bucket id is below Nil.
		top := min(uint64(bucket.Nil)*ud-1, inf-1)
		dists := []uint64{0, 1, ud - 1, ud, ud + 1, top, top - 1, top - ud}
		for range 2000 {
			dists = append(dists, r.Uint64()%(top+1))
		}
		for _, dist := range dists {
			if got, want := w.bktOf(dist), bucket.ID(dist/ud); got != want {
				t.Fatalf("∆=%d: bktOf(%d) = %d, want %d", c.delta, dist, got, want)
			}
		}
		for _, dist := range []uint64{inf, inf + 1, ^uint64(0)} {
			if got := w.bktOf(dist); got != bucket.Nil {
				t.Fatalf("∆=%d: bktOf(%d) = %d, want Nil", c.delta, dist, got)
			}
		}
		if top < inf-1 {
			// One past top is bucket id Nil: both paths must refuse it.
			for _, dist := range []uint64{top + 1, inf - 1} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("∆=%d: bktOf(%d) returned without the bucket-id overflow panic", c.delta, dist)
						}
					}()
					w.bktOf(dist)
				}()
			}
		}
	}
}
