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
// components are the individual k-cores. g's adjacency lists are taken
// to be sorted, as every graph.FromEdges build and generator makes
// them; the subgraph's lists then come out sorted as well.
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
	// The induced CSR is built in place: count each kept vertex's kept
	// neighbours, scan the counts into offsets, fill. The renumbering is
	// monotone, so sorted adjacency lists stay sorted; self-loops and
	// repeats of the previous neighbour are dropped, as graph.FromEdges'
	// DropSelfLoops and Dedup (first weight wins) would. Both directions
	// of every undirected edge survive induction, so the subgraph is
	// undirected too. The graph's edge count bounds the work from above.
	nk := len(keep)
	p := parallel.WorkersFor(int64(nk) + g.NumEdges())
	bufs := make([]graph.AdjBuf, p)
	kept := func(v graph.Vertex, nbrs []graph.Vertex, j int) bool {
		u := nbrs[j]
		return renum[u] != graph.NilVertex && u != v && (j == 0 || nbrs[j-1] != u)
	}
	offsets := make([]uint64, nk+1)
	parallel.Workers(nk, p, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			nbrs, _ := g.OutAdj(keep[i], &bufs[w])
			for j := range nbrs {
				if kept(keep[i], nbrs, j) {
					offsets[i]++
				}
			}
		}
	})
	m := parallel.Scan(offsets, offsets) // the trailing zero becomes offsets[nk] = m
	edges := make([]graph.Vertex, m)
	var weights []graph.Weight
	if g.Weighted() {
		weights = make([]graph.Weight, m)
	}
	parallel.Workers(nk, p, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			nbrs, ws := g.OutAdj(keep[i], &bufs[w])
			at := offsets[i]
			for j, u := range nbrs {
				if kept(keep[i], nbrs, j) {
					edges[at] = renum[u]
					if weights != nil {
						weights[at] = ws[j]
					}
					at++
				}
			}
		}
	})
	sub := graph.NewCSR(nk, offsets, edges, weights, true)

	res := CoreSubgraph{K: k, Vertices: keep, Graph: sub}
	if len(keep) > 0 {
		res.Components = cc.Components(sub)
		res.NumCores = cc.Count(res.Components)
	}
	return res
}
