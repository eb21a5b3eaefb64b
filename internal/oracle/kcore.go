package oracle

import (
	"fmt"

	"julienne/internal/graph"
)

// Coreness is the textbook Matula–Beck peeling algorithm in its most
// literal form: repeatedly remove a vertex of minimum residual degree
// (found by a linear scan), recording the running maximum of the
// removal degrees as the coreness. O(n^2 + m) — obviously correct, and
// structurally unrelated to both the bucketed parallel algorithm and
// the optimized Batagelj–Zaversnik baseline it arbitrates between.
//
// The graph must be undirected. Self-loops and duplicate edges, if
// present, contribute to degrees exactly as OutDegree/OutNeighbors
// report them, matching the semantics of the implementations under
// test.
func Coreness(g graph.Graph) []uint32 {
	if !g.Symmetric() {
		panic("oracle: Coreness requires an undirected graph")
	}
	n := g.NumVertices()
	deg := make([]int64, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = int64(g.OutDegree(graph.Vertex(v)))
		alive[v] = true
	}
	core := make([]uint32, n)
	k := int64(0)
	for removed := 0; removed < n; removed++ {
		// Linear scan for a minimum-residual-degree live vertex.
		min := graph.NilVertex
		for v := 0; v < n; v++ {
			if alive[v] && (min == graph.NilVertex || deg[v] < deg[min]) {
				min = graph.Vertex(v)
			}
		}
		if deg[min] > k {
			k = deg[min]
		}
		core[min] = uint32(k)
		alive[min] = false
		g.OutNeighbors(min, func(u graph.Vertex, w graph.Weight) bool {
			if alive[u] {
				deg[u]--
			}
			return true
		})
	}
	return core
}

// VerifyCoreness checks a coreness vector against the Matula–Beck
// oracle, returning the first mismatch.
func VerifyCoreness(g graph.Graph, got []uint32) error {
	if len(got) != g.NumVertices() {
		return fmt.Errorf("coreness: length %d, want %d", len(got), g.NumVertices())
	}
	return Diff("coreness", got, Coreness(g))
}
