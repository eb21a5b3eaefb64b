package ligra

import (
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
	var scratch CountScratch
	traversals := map[string]func(u VertexSubset){
		"EdgeMap/sparse":          func(u VertexSubset) { EdgeMap(g, u, nil, none, EdgeMapOptions{NoDense: true}) },
		"EdgeMap/sparse-nooutput": func(u VertexSubset) { EdgeMap(g, u, nil, none, EdgeMapOptions{NoDense: true, NoOutput: true}) },
		"EdgeMap/dense":           func(u VertexSubset) { edgeMapDense(g, u, nil, none, EdgeMapOptions{}) },
		"EdgeMap/dense-nooutput":  func(u VertexSubset) { edgeMapDense(g, u, nil, none, EdgeMapOptions{NoOutput: true}) },
		"EdgeMapTagged": func(u VertexSubset) {
			EdgeMapTagged(g, u, nil, func(_, _ graph.Vertex, _ graph.Weight) (uint32, bool) { return 0, false })
		},
		"EdgeMapCount":       func(u VertexSubset) { EdgeMapCount(g, u, func(graph.Vertex) bool { return false }, &scratch) },
		"EdgeMapFilterCount": func(u VertexSubset) { EdgeMapFilterCount(g, u, func(_, _ graph.Vertex) bool { return false }) },
		// Keeps every edge, so g is left as it was.
		"EdgeMapPack": func(u VertexSubset) { EdgeMapPack(g, u, func(_, _ graph.Vertex) bool { return true }) },
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
	var scratch CountScratch
	allocs := testing.AllocsPerRun(10, func() {
		EdgeMapCount(g, u, func(graph.Vertex) bool { return false }, &scratch)
	})
	if allocs > 16 {
		t.Errorf("EdgeMapCount over all %d vertices of a compressed graph: %v allocs, want a handful", len(ids), allocs)
	}
}

// TestNilCondAdmitsEveryTarget: a nil C is cond_true in every traversal
// that takes one, in both directions.
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
	tagged := EdgeMapTagged(g, hub, nil, func(_, d graph.Vertex, _ graph.Weight) (uint32, bool) { return d, true })
	if tagged.Size() != 49 {
		t.Errorf("EdgeMapTagged: %d outputs, want 49", tagged.Size())
	}
	var scratch CountScratch
	if counted := EdgeMapCount(g, hub, nil, &scratch); counted.Size() != 49 {
		t.Errorf("EdgeMapCount: %d outputs, want 49", counted.Size())
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
