package oracle

import (
	"fmt"
	"math"

	"julienne/internal/graph"
)

// Unreachable mirrors sssp.Unreachable: the distance reported for
// vertices not connected to the source.
const Unreachable int64 = -1

// Dijkstra is the textbook array-based Dijkstra algorithm: n rounds,
// each selecting the unvisited vertex of minimum tentative distance by
// a linear scan and relaxing its out-edges. O(n^2 + m), no heap, no
// bucket queue, no distance/flag bit packing — deliberately nothing in
// common with the implementations it checks. Weights must be
// non-negative (the graph package enforces this at construction).
func Dijkstra(g graph.Graph, src graph.Vertex) []int64 {
	n := g.NumVertices()
	if int(src) >= n {
		panic(fmt.Sprintf("oracle: source %d out of range for n=%d", src, n))
	}
	const inf = math.MaxInt64
	dist := make([]int64, n)
	done := make([]bool, n)
	for v := range dist {
		dist[v] = inf
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		min := graph.NilVertex
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < inf && (min == graph.NilVertex || dist[v] < dist[min]) {
				min = graph.Vertex(v)
			}
		}
		if min == graph.NilVertex {
			break // every remaining vertex is unreachable
		}
		done[min] = true
		g.OutNeighbors(min, func(u Vertex, w graph.Weight) bool {
			if nd := dist[min] + int64(w); nd < dist[u] {
				dist[u] = nd
			}
			return true
		})
	}
	for v := range dist {
		if dist[v] == inf {
			dist[v] = Unreachable
		}
	}
	return dist
}

// Vertex aliases graph.Vertex for the callback signatures above.
type Vertex = graph.Vertex

// VerifyDistances checks an SSSP distance vector against the Dijkstra
// oracle, returning the first mismatch.
func VerifyDistances(g graph.Graph, src graph.Vertex, got []int64) error {
	if len(got) != g.NumVertices() {
		return fmt.Errorf("sssp: length %d, want %d", len(got), g.NumVertices())
	}
	return Diff("sssp", got, Dijkstra(g, src))
}
