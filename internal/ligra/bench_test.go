package ligra

import (
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/parallel"
	"julienne/internal/rng"
)

func benchFrontier(g graph.Graph, frac int) VertexSubset {
	n := g.NumVertices()
	return FromSparse(n, parallel.PackIndices(nil, n, func(v int) bool { return v%frac == 0 }))
}

func BenchmarkEdgeMapSparse(b *testing.B) {
	g := gen.RMAT(1<<14, 1<<17, true, 1)
	u := benchFrontier(g, 16)
	always := func(graph.Vertex) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeMap(g, u, always,
			func(s, d graph.Vertex, w graph.Weight) bool { return false },
			EdgeMapOptions{NoDense: true})
	}
}

func BenchmarkEdgeMapDense(b *testing.B) {
	g := gen.RMAT(1<<14, 1<<17, true, 1)
	u := benchFrontier(g, 2)
	always := func(graph.Vertex) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeMap(g, u, always,
			func(s, d graph.Vertex, w graph.Weight) bool { return false },
			EdgeMapOptions{})
	}
}

// BenchmarkEdgeMapWriteMin measures ∆-stepping's relaxation step at
// P=1 over every vertex: each iteration restores the distances (n
// words, against 16n edges) and relaxes every edge into them. The graph
// is graph.BenchmarkOutAdjTraversal's shape — 2¹⁴ vertices, 2¹⁸ uniform
// directed edges — weighted, and ns/edge is counted as there, so the
// two read side by side in one `make microbench` run.
func BenchmarkEdgeMapWriteMin(b *testing.B) {
	defer parallel.SetProcs(parallel.SetProcs(1))
	g := gen.UniformWeights(gen.ErdosRenyi(1<<14, 1<<18, false, 1), 1, 1<<10, 1)
	n := g.NumVertices()
	u := FromSparse(n, All(n).Sparse())
	start, dist := make([]int64, n), make([]int64, n)
	for v := range start {
		start[v] = int64(rng.UintNAt(1, uint64(v), 1<<20))
	}
	var moved Tagged[uint64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dist, start)
		EdgeMapWriteMin(g, u, dist, &moved)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*g.NumEdges()), "ns/edge")
}
