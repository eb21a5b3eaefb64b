package ligra

import (
	"sync/atomic"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/parallel"
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

// BenchmarkEdgeMapSum measures k-core's whole step — count, Update,
// compact — into a destination the loop owns, as kcore.Coreness runs
// it. Update leaves D alone so every iteration does the same work.
func BenchmarkEdgeMapSum(b *testing.B) {
	g := gen.RMAT(1<<14, 1<<17, true, 1)
	u := benchFrontier(g, 16)
	n := g.NumVertices()
	d := make([]uint32, n)
	for v := range d {
		d[v] = uint32(g.OutDegree(graph.Vertex(v)))
	}
	const k = 2
	stillLive := func(v graph.Vertex) bool { return d[v] > k }
	update := func(v graph.Vertex, removed uint32) (uint32, bool) {
		induced := d[v]
		newD := max(induced-removed, k)
		return newD, newD != induced
	}
	var moved Tagged[uint32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeMapSum(g, u, stillLive, update, &moved)
	}
}

func BenchmarkEdgeMapTagged(b *testing.B) {
	g := gen.RMAT(1<<14, 1<<17, true, 1)
	u := benchFrontier(g, 16)
	claimed := make([]uint32, g.NumVertices())
	var epoch uint32
	var out Tagged[uint32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch++
		e := epoch
		EdgeMapTagged(g, u, func(graph.Vertex) bool { return true },
			func(s, d graph.Vertex, w graph.Weight) (uint32, bool) {
				old := atomic.LoadUint32(&claimed[d])
				if old != e && atomic.CompareAndSwapUint32(&claimed[d], old, e) {
					return uint32(s), true
				}
				return 0, false
			}, &out)
	}
}
