package graph

import (
	"testing"

	"julienne/internal/rng"
)

func benchEdges(n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			U: Vertex(rng.UintNAt(1, uint64(2*i), uint64(n))),
			V: Vertex(rng.UintNAt(1, uint64(2*i+1), uint64(n))),
			W: Weight(rng.UintNAt(2, uint64(i), 100)),
		}
	}
	return edges
}

// The traversal benchmark walks every adjacency list through the Graph
// interface, as the algorithms do — one interface call per vertex,
// then a plain loop — and reports ns/edge.

func traversalGraph() Graph {
	return FromEdges(1<<14, benchEdges(1<<14, 1<<18), DefaultBuild)
}

func reportPerEdge(b *testing.B, g Graph) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*g.NumEdges()), "ns/edge")
	b.SetBytes(g.NumEdges() * 4)
}

func BenchmarkOutAdjTraversal(b *testing.B) {
	g := traversalGraph()
	b.ResetTimer()
	var sink int64
	var buf AdjBuf
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.NumVertices(); v++ {
			nbrs, _ := g.OutAdj(Vertex(v), &buf)
			for _, u := range nbrs {
				sink += int64(u)
			}
		}
	}
	_ = sink
	reportPerEdge(b, g)
}
