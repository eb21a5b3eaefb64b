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
	return FromSparse(n, parallel.PackIndices(n, func(v int) bool { return v%frac == 0 }))
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

// perEdgeGraph is graph.BenchmarkOutAdjTraversal's shape — 2¹⁴
// vertices, 2¹⁸ uniform directed edges — weighted, so the two round
// primitives below read in ns per edge against that plain traversal in
// the same `make microbench` run.
func perEdgeGraph() *graph.CSR {
	return gen.UniformWeights(gen.ErdosRenyi(1<<14, 1<<18, false, 1), 1, 1<<10, 1)
}

// reportPerEdge reports ns per edge of g, each iteration traversing
// every edge once, as the graph package's traversal benchmark does.
func reportPerEdge(b *testing.B, g graph.Graph) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*g.NumEdges()), "ns/edge")
}

// BenchmarkEdgeMapSum measures k-core's whole step — count, Update,
// compact — over every vertex, into a destination the loop owns, as
// kcore.Coreness runs it at P=1 (the inline arm, whose per-edge cost
// the traversal benchmark bounds from below). Update leaves D alone so
// every iteration does the same work.
func BenchmarkEdgeMapSum(b *testing.B) {
	defer parallel.SetProcs(parallel.SetProcs(1))
	g := perEdgeGraph()
	n := g.NumVertices()
	u := FromSparse(n, All(n).Sparse())
	d := make([]uint32, n)
	for v := range d {
		d[v] = uint32(g.OutDegree(graph.Vertex(v)))
	}
	const k = 2
	update := func(v graph.Vertex, removed uint32) (uint32, bool) {
		induced := d[v]
		newD := max(induced-removed, k)
		return newD, newD != induced
	}
	var moved Tagged[uint32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeMapSum(g, u, Above{D: d, K: k}, update, &moved)
	}
	reportPerEdge(b, g)
}

// BenchmarkEdgeMapWriteMin measures ∆-stepping's relaxation step at
// P=1 over every vertex: each iteration restores the distances (n
// words, against 16n edges) and relaxes every edge into them.
func BenchmarkEdgeMapWriteMin(b *testing.B) {
	defer parallel.SetProcs(parallel.SetProcs(1))
	g := perEdgeGraph()
	n := g.NumVertices()
	u := FromSparse(n, All(n).Sparse())
	start, dist := make([]uint64, n), make([]uint64, n)
	for v := range start {
		start[v] = rng.UintNAt(1, uint64(v), 1<<20)
	}
	var moved Tagged[uint64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dist, start)
		EdgeMapWriteMin(g, u, dist, &moved)
	}
	reportPerEdge(b, g)
}
