package ligra

import (
	"sync/atomic"
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/compress"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// TestTraversalAllocsIndependentOfFrontier pins the shape of the
// per-edge path: a traversal allocates its outputs and a few closures
// per call and nothing per source vertex or per edge, so |U| = 1 and
// |U| = 4096 cost the same number of objects. (With a callback per
// neighbor handed through the graph.Graph interface, every source
// vertex cost one heap-allocated closure.) F and C reject every edge so
// the outputs are empty either way.
func TestTraversalAllocsIndependentOfFrontier(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if bucket.DebugEnabled {
		t.Skip("julienne_debug's sparse-subset check allocates per member by design")
	}
	old := parallel.SetProcs(1)
	defer parallel.SetProcs(old)

	g := gen.RMAT(1<<13, 1<<16, true, 7)
	n := g.NumVertices()
	ids := make([]graph.Vertex, 4096)
	for i := range ids {
		ids[i] = graph.Vertex(i)
	}
	none := func(_, _ graph.Vertex, _ graph.Weight) bool { return false }
	noTarget := Above{D: make([]uint32, n)}
	dist := make([]int64, n) // all zero: no write lowers one
	traversals := map[string]func(u VertexSubset){
		"EdgeMap/sparse":          func(u VertexSubset) { EdgeMap(g, u, nil, none, EdgeMapOptions{NoDense: true}) },
		"EdgeMap/sparse-nooutput": func(u VertexSubset) { EdgeMap(g, u, nil, none, EdgeMapOptions{NoDense: true, NoOutput: true}) },
		"EdgeMap/dense":           func(u VertexSubset) { edgeMapDense(g, u, nil, none, EdgeMapOptions{}) },
		"EdgeMap/dense-nooutput":  func(u VertexSubset) { edgeMapDense(g, u, nil, none, EdgeMapOptions{NoOutput: true}) },
		"EdgeMapWriteMin":         func(u VertexSubset) { EdgeMapWriteMin(g, u, dist, nil) },
		"EdgeMapSum":              func(u VertexSubset) { EdgeMapSum(g, u, noTarget, keepCount, nil) },
		"EdgeMapFilterCount":      func(u VertexSubset) { EdgeMapFilterCount(g, u, func(_, _ graph.Vertex) bool { return false }, nil) },
		// Keeps every edge, so g is left as it was.
		"EdgeMapPack": func(u VertexSubset) { EdgeMapPack(g, u, func(_, _ graph.Vertex) bool { return true }, nil) },
	}
	for name, traverse := range traversals {
		one, many := FromSparse(n, ids[:1]), FromSparse(n, ids)
		few := testing.AllocsPerRun(10, func() { traverse(one) })
		lots := testing.AllocsPerRun(10, func() { traverse(many) })
		if few != lots {
			t.Errorf("%s: %v allocs for |U| = 1, %v for |U| = %d; want the same", name, few, lots, len(ids))
		}
	}
}

// TestCompressedTraversalReusesDecodeBuffers: on the representation
// that has to decode, the per-worker buffers come from the scratch pool
// and keep their capacity, so a warm traversal decodes every list of
// the frontier without allocating per vertex.
func TestCompressedTraversalReusesDecodeBuffers(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if bucket.DebugEnabled {
		t.Skip("julienne_debug's sparse-subset check allocates per member by design")
	}
	old := parallel.SetProcs(1)
	defer parallel.SetProcs(old)

	g := compress.FromCSR(gen.HeavyWeights(gen.RMAT(1<<12, 1<<15, true, 7), 7))
	ids := All(g.NumVertices()).Sparse()
	u := FromSparse(g.NumVertices(), ids)
	var dst Tagged[uint32]
	noTarget := Above{D: make([]uint32, g.NumVertices())}
	allocs := testing.AllocsPerRun(10, func() {
		EdgeMapSum(g, u, noTarget, keepCount, &dst)
	})
	if allocs > 16 {
		t.Errorf("EdgeMapSum over all %d vertices of a compressed graph: %v allocs, want a handful", len(ids), allocs)
	}
}

// TestNilCondAdmitsEveryTarget: a nil C is cond_true in every traversal
// that takes one, in both directions, and the push direction takes a
// dense input (All) on both representations.
func TestNilCondAdmitsEveryTarget(t *testing.T) {
	g := gen.Star(50)
	hub := Single(50, 0)
	count := func(visits *int) func(_, _ graph.Vertex, _ graph.Weight) bool {
		return func(_, _ graph.Vertex, _ graph.Weight) bool { *visits++; return true }
	}
	var sparse, dense int
	if out := edgeMapSparse(g, hub, 1, nil, count(&sparse), EdgeMapOptions{}); sparse != 49 || out.Size() != 49 {
		t.Errorf("sparse: %d visits, %d outputs, want 49 and 49", sparse, out.Size())
	}
	old := parallel.SetProcs(1) // count is not atomic
	out := edgeMapDense(g, hub, nil, count(&dense), EdgeMapOptions{})
	parallel.SetProcs(old)
	if dense != 49 || out.Size() != 49 {
		t.Errorf("dense: %d visits, %d outputs, want 49 and 49", dense, out.Size())
	}
	for name, h := range map[string]graph.Graph{"csr": g, "compressed": compress.FromCSR(g)} {
		var visits atomic.Int64
		claimed := make([]atomic.Bool, 50)
		out := EdgeMap(h, All(50), nil, func(_, d graph.Vertex, _ graph.Weight) bool {
			visits.Add(1)
			return claimed[d].CompareAndSwap(false, true)
		}, EdgeMapOptions{NoDense: true})
		if visits.Load() != 98 || out.Size() != 50 {
			t.Errorf("%s: sparse over All: %d visits, %d outputs, want 98 and 50", name, visits.Load(), out.Size())
		}
	}
}

// TestEdgeMapDenseNoOutput: the pull direction under NoOutput applies F
// to the same edges and returns the empty subset.
func TestEdgeMapDenseNoOutput(t *testing.T) {
	g := gen.Star(50)
	old := parallel.SetProcs(1) // visits is not atomic
	defer parallel.SetProcs(old)
	visits := 0
	out := edgeMapDense(g, Single(50, 0), func(v graph.Vertex) bool { return v != 0 },
		func(_, _ graph.Vertex, _ graph.Weight) bool { visits++; return true },
		EdgeMapOptions{NoOutput: true})
	if !out.IsEmpty() || visits != 49 {
		t.Errorf("dense NoOutput: %d members, %d visits; want 0 and 49", out.Size(), visits)
	}
}

// TestRoundPrimitivesZeroAllocSteadyState pins the destination contract
// where it pays: at P=1, once a destination has seen a frontier of a
// given size, every further call with it allocates nothing — no output
// slice, no closure, no pair array.
func TestRoundPrimitivesZeroAllocSteadyState(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if bucket.DebugEnabled {
		t.Skip("julienne_debug gives a destination fresh arrays on every call by design")
	}
	old := parallel.SetProcs(1)
	defer parallel.SetProcs(old)

	g := gen.RMAT(1<<13, 1<<16, true, 7)
	n := g.NumVertices()
	ids := make([]graph.Vertex, 4096)
	for i := range ids {
		ids[i] = graph.Vertex(i)
	}
	u := FromSparse(n, ids)
	odd := func(v graph.Vertex) bool { return v%2 == 1 }
	parity := make([]uint32, n)
	// Every eighth vertex starts at distance 1, the rest at 0, and each
	// call restores start first, so every call lowers the same vertices.
	start, dist := make([]int64, n), make([]int64, n)
	for v := range parity {
		parity[v] = uint32(v % 2)
		if v%8 == 0 {
			start[v] = 1
		}
	}
	var packed, won, sums, mapped, remapped Tagged[uint32]
	var relaxed Tagged[uint64]
	// Keeps every edge, so g is left as it was.
	input := EdgeMapPack(g, u, func(_, _ graph.Vertex) bool { return true }, nil)
	keepAll := func(_, _ graph.Vertex) bool { return true }
	wonOdd := func(_, dst graph.Vertex) bool { return odd(dst) }
	tag := func(v graph.Vertex) (uint32, bool) { return v, odd(v) }
	retag := func(v graph.Vertex, deg uint32) (uint32, bool) { return deg + 1, odd(v) }
	primitives := map[string]func(){
		"EdgeMapSum": func() { EdgeMapSum(g, u, Above{D: parity, K: 0}, keepCount, &sums) },
		"EdgeMapWriteMin": func() {
			copy(dist, start)
			EdgeMapWriteMin(g, u, dist, &relaxed)
		},
		"TagMap":             func() { TagMap(u, tag, &mapped) },
		"TagMapTagged":       func() { TagMapTagged(input, retag, &remapped) },
		"EdgeMapFilterCount": func() { EdgeMapFilterCount(g, u, wonOdd, &won) },
		"EdgeMapPack":        func() { EdgeMapPack(g, u, keepAll, &packed) },
	}
	for name, call := range primitives {
		call() // the destination grows to the frontier's size
		if allocs := testing.AllocsPerRun(10, call); allocs != 0 {
			t.Errorf("%s with a warm destination: %v allocs per call, want 0", name, allocs)
		}
	}
	for name, size := range map[string]int{"EdgeMapSum": sums.Size(), "EdgeMapWriteMin": relaxed.Size(),
		"TagMap": mapped.Size(), "TagMapTagged": remapped.Size(), "EdgeMapFilterCount": won.Size(), "EdgeMapPack": packed.Size()} {
		if size == 0 {
			t.Errorf("%s left its destination empty: the pin measured nothing", name)
		}
	}
}
