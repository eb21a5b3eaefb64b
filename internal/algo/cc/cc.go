// Package cc computes connected components with label propagation, the
// canonical frontier-based algorithm the paper's introduction uses to
// motivate Ligra-style frameworks (§1: "In label propagation
// implementations of graph connectivity, the frontier on each round
// consists of vertices whose labels changed in the previous round").
//
// It also serves §4.1's footnote: extracting a particular k-core from
// coreness values means taking the induced subgraph on vertices with
// coreness ≥ k and finding its components, "which can be done
// efficiently in parallel" — see kcore.CoreSubgraph.
package cc

import (
	"sync/atomic"

	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
)

// Components returns, for every vertex, the smallest vertex id in its
// connected component (the component label). The graph must be
// undirected.
func Components(g graph.Graph) []graph.Vertex {
	if !g.Symmetric() {
		panic("cc: requires an undirected graph")
	}
	n := g.NumVertices()
	label := make([]uint32, n)
	parallel.For(n, parallel.DefaultGrain, func(v int) { label[v] = uint32(v) })

	// Label propagation: every round, vertices push their label to
	// neighbors with writeMin; the frontier is the set of vertices
	// whose label changed, deduplicated with a per-round claim flag
	// (the first successful relaxer of d this round adds it).
	changed := make([]uint32, n)
	frontier := ligra.All(n)
	for !frontier.IsEmpty() {
		frontier = ligra.EdgeMap(g, frontier,
			nil, // every target
			func(s, d graph.Vertex, w graph.Weight) bool {
				if parallel.WriteMinUint32(&label[d], atomic.LoadUint32(&label[s])) {
					return atomic.CompareAndSwapUint32(&changed[d], 0, 1)
				}
				return false
			}, ligra.EdgeMapOptions{NoDense: true})
		frontier.ForEach(func(v graph.Vertex) {
			atomic.StoreUint32(&changed[v], 0)
		})
	}
	out := make([]graph.Vertex, n)
	parallel.For(n, parallel.DefaultGrain, func(v int) { out[v] = graph.Vertex(label[v]) })
	return out
}

// Count returns the number of distinct components given labels from
// Components (labels are canonical: the minimum vertex id, so a vertex
// whose label equals its own id roots a component).
func Count(labels []graph.Vertex) int {
	return parallel.Count(len(labels), 0, func(v int) bool {
		return labels[v] == graph.Vertex(v)
	})
}

// Largest returns the label and size of the largest component.
func Largest(labels []graph.Vertex) (graph.Vertex, int) {
	if len(labels) == 0 {
		return graph.NilVertex, 0
	}
	sizes := map[graph.Vertex]int{}
	for _, l := range labels {
		sizes[l]++
	}
	best, bestSize := graph.NilVertex, 0
	for l, s := range sizes {
		if s > bestSize || (s == bestSize && l < best) {
			best, bestSize = l, s
		}
	}
	return best, bestSize
}
