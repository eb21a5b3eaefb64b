package kcore

import (
	"julienne/internal/algo/cc"
	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// CoreSubgraph is the result of extracting a particular k-core from
// coreness values (footnote 1 / §4.1 of the paper: "computing a
// particular k-core from the coreness numbers requires finding the
// largest induced subgraph among vertices with coreness at least k,
// which can be done efficiently in parallel").
type CoreSubgraph struct {
	// K is the requested core value.
	K uint32
	// Vertices are the original-graph ids of the subgraph's vertices,
	// in increasing order; the subgraph renumbers them densely in this
	// order.
	Vertices []graph.Vertex
	// Graph is the induced subgraph over the renumbered vertices.
	Graph *graph.CSR
	// Components labels each subgraph vertex with the minimum
	// renumbered id of its connected component. A k-core is by
	// definition a maximal *connected* subgraph with min degree k, so
	// the k-cores of the original graph are exactly these components.
	Components []graph.Vertex
	// NumCores is the number of distinct k-cores (components).
	NumCores int
}

// ExtractCore returns the k-core(s) of g given its coreness values
// (from any of the Coreness implementations). Every vertex of the
// returned subgraph has induced degree ≥ k; the subgraph's connected
// components are the individual k-cores.
func ExtractCore(g graph.Graph, coreness []uint32, k uint32) CoreSubgraph {
	requireSymmetric(g)
	n := g.NumVertices()
	if len(coreness) != n {
		panic("kcore: coreness slice does not match the graph")
	}
	keep := parallel.PackIndices(n, func(v int) bool { return coreness[v] >= k })
	// Dense renumbering: old id -> new id.
	renum := make([]graph.Vertex, n)
	parallel.For(n, parallel.DefaultGrain, func(v int) { renum[v] = graph.NilVertex })
	parallel.For(len(keep), parallel.DefaultGrain, func(i int) {
		renum[keep[i]] = graph.Vertex(i)
	})
	// Induced edges, built per kept vertex in parallel.
	// The graph's edge count bounds the work from above; a few spare
	// workers on a small core cost nothing next to the rebuild below.
	p := parallel.WorkersFor(int64(len(keep)) + g.NumEdges())
	parts := make([][]graph.Edge, p)
	parallel.Workers(len(keep), p, func(worker, lo, hi int) {
		local := parts[worker]
		for i := lo; i < hi; i++ {
			v := keep[i]
			g.OutNeighbors(v, func(u graph.Vertex, w graph.Weight) bool {
				if renum[u] != graph.NilVertex {
					local = append(local, graph.Edge{U: graph.Vertex(i), V: renum[u], W: w})
				}
				return true
			})
		}
		parts[worker] = local
	})
	var edges []graph.Edge
	for _, p := range parts {
		edges = append(edges, p...)
	}
	// Both directions of every undirected edge survive induction, so
	// no re-symmetrization is needed; FromEdges just sorts and builds.
	sub := graph.FromEdges(len(keep), edges, graph.BuildOptions{
		Weighted:      g.Weighted(),
		DropSelfLoops: true,
		Dedup:         true,
	})
	sub = markSymmetric(sub)

	res := CoreSubgraph{K: k, Vertices: keep, Graph: sub}
	if len(keep) > 0 {
		res.Components = cc.Components(sub)
		res.NumCores = cc.Count(res.Components)
	}
	return res
}

// markSymmetric rebuilds the CSR flagged undirected. Induced subgraphs
// of undirected graphs contain both edge directions already, so the
// flag is a statement of fact, not a transformation.
func markSymmetric(g *graph.CSR) *graph.CSR {
	n := g.NumVertices()
	offsets := make([]uint64, n+1)
	var m uint64
	for v := 0; v < n; v++ {
		offsets[v] = m
		m += uint64(g.OutDegree(graph.Vertex(v)))
	}
	offsets[n] = m
	edges := make([]graph.Vertex, 0, m)
	var weights []graph.Weight
	if g.Weighted() {
		weights = make([]graph.Weight, 0, m)
	}
	for v := 0; v < n; v++ {
		edges = append(edges, g.OutEdges(graph.Vertex(v))...)
		if weights != nil {
			weights = append(weights, g.OutWeights(graph.Vertex(v))...)
		}
	}
	return graph.NewCSR(n, offsets, edges, weights, true)
}
