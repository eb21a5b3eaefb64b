package ligra

import (
	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// VertexMap applies F to every vertex of U in parallel and returns the
// subset of U for which F returned true (§2.1: "It applies F to all
// vertices in U and returns a vertexSubset containing U' ⊆ U where
// u ∈ U' if and only if F(u) = true. F can side-effect data structures
// associated with the vertices.").
//
// F is called exactly once per member, so side effects are safe; the
// output is built from a separate pass over recorded booleans.
func VertexMap(u VertexSubset, f func(v graph.Vertex) bool) VertexSubset {
	if u.IsDense() {
		n := u.Universe()
		in := u.Dense()
		out := make([]bool, n)
		parallel.For(n, parallel.DefaultGrain, func(i int) {
			if in[i] {
				out[i] = f(graph.Vertex(i))
			}
		})
		return FromDense(n, out)
	}
	ids := u.Sparse()
	keep := make([]bool, len(ids))
	parallel.For(len(ids), parallel.DefaultGrain, func(i int) {
		keep[i] = f(ids[i])
	})
	return FromSparse(u.Universe(), parallel.FilterIndex(ids,
		func(i int, _ graph.Vertex) bool { return keep[i] }))
}

// VertexFilter returns the members of U satisfying the pure predicate
// P (the vertexFilter of Algorithm 3, line 27). Unlike VertexMap, P
// must not side-effect: it may be evaluated more than once per member.
func VertexFilter(u VertexSubset, p func(v graph.Vertex) bool) VertexSubset {
	if u.IsDense() {
		n := u.Universe()
		in := u.Dense()
		out := make([]bool, n)
		parallel.For(n, parallel.DefaultGrain, func(i int) {
			out[i] = in[i] && p(graph.Vertex(i))
		})
		return FromDense(n, out)
	}
	ids := u.Sparse()
	return FromSparse(u.Universe(), parallel.Filter(ids, p))
}
