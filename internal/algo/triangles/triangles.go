// Package triangles counts triangles in undirected graphs. Triangle
// support is the substrate for truss-style bucketed peeling — the
// paper's §3.1 explicitly envisions bucket identifiers representing
// "edges, triangles, or graph motifs" — and triangle counts are a
// staple statistic for the social-network inputs the evaluation uses.
//
// The algorithm is the standard degree-ordered count: orient each
// undirected edge from the lower-rank endpoint to the higher (rank =
// (degree, id)), then for every directed edge (u, v) intersect the
// sorted out-neighborhoods of u and v. Each triangle is counted
// exactly once. Work O(m^{3/2}) worst case, parallel over vertices.
package triangles

import (
	"sync/atomic"

	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// Count returns the number of triangles in g (undirected).
func Count(g graph.Graph) int64 {
	counts := PerVertex(g)
	// Every triangle contributes 1 to exactly three vertices' counts.
	return parallel.SumSlice(counts) / 3
}

// PerVertex returns, for each vertex, the number of triangles it
// participates in.
func PerVertex(g graph.Graph) []int64 {
	if !g.Symmetric() {
		panic("triangles: requires an undirected graph")
	}
	n := g.NumVertices()
	// rank orders vertices by (degree, id); orienting edges toward
	// higher rank bounds out-degrees by O(sqrt(m)) on simple graphs.
	rank := func(v graph.Vertex) uint64 {
		return uint64(g.OutDegree(v))<<32 | uint64(v)
	}
	// Oriented adjacency: higher-rank neighbors only, sorted by id
	// (the input adjacency is sorted, filtering preserves order).
	oriented := make([][]graph.Vertex, n)
	parallel.For(n, 64, func(vi int) {
		v := graph.Vertex(vi)
		rv := rank(v)
		var out []graph.Vertex
		g.OutNeighbors(v, func(u graph.Vertex, w graph.Weight) bool {
			if rank(u) > rv {
				out = append(out, u)
			}
			return true
		})
		oriented[vi] = out
	})

	counts := make([]int64, n)
	parallel.For(n, 16, func(ui int) {
		u := graph.Vertex(ui)
		for _, v := range oriented[ui] {
			// Intersect oriented[u] and oriented[v]: each common w
			// closes the triangle u-v-w with rank(u) < rank(v) < ... —
			// ranks of both lists exceed their owners', and w appears
			// in both, so the triangle is found exactly here.
			a, b := oriented[ui], oriented[v]
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					w := a[i]
					atomic.AddInt64(&counts[u], 1)
					atomic.AddInt64(&counts[v], 1)
					atomic.AddInt64(&counts[w], 1)
					i++
					j++
				}
			}
		}
	})
	return counts
}

// GlobalClusteringCoefficient returns 3·triangles / open-wedges, the
// standard transitivity measure, or 0 for wedge-free graphs.
func GlobalClusteringCoefficient(g graph.Graph) float64 {
	tri := Count(g)
	wedges := parallel.Sum(g.NumVertices(), 0, func(v int) int64 {
		d := int64(g.OutDegree(graph.Vertex(v)))
		return d * (d - 1) / 2
	})
	if wedges == 0 {
		return 0
	}
	return 3 * float64(tri) / float64(wedges)
}
