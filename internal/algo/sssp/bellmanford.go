package sssp

import (
	"sync/atomic"

	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
)

// BellmanFord is the frontier-based SSSP algorithm found in Ligra and
// most graph frameworks: every round relaxes all out-edges of the
// vertices whose distance changed in the previous round. It converges
// in at most h rounds where h is the maximum hop count of a shortest
// path, doing up to O(m) work per round — simple, dense-friendly, and
// work-inefficient on weighted graphs, which is exactly the baseline
// role it plays in Table 3 and Figures 3–4.
func BellmanFord(g graph.Graph, src graph.Vertex) Result {
	checkInput(g, src)
	n := g.NumVertices()
	sp := make([]uint64, n)
	parallel.For(n, parallel.DefaultGrain, func(i int) { sp[i] = inf })
	sp[src] = 0

	res := Result{}
	var relaxations atomic.Int64
	frontier := ligra.Single(n, src)
	for !frontier.IsEmpty() {
		res.Rounds++
		res.EdgesTraversed += frontier.OutDegreeSum(g)
		// The round flag performs Ligra's duplicate removal: the first
		// successful relaxer of v this round adds v to the output.
		frontier = ligra.EdgeMap(g, frontier, nil,
			func(s, d graph.Vertex, w graph.Weight) bool {
				base := atomic.LoadUint64(&sp[s]) &^ ligra.RoundFlag
				_, lowered, first := ligra.WriteMin(sp, d, base+uint64(w))
				if lowered {
					relaxations.Add(1)
				}
				return first
			}, ligra.EdgeMapOptions{})
		// Clear round flags for the next iteration.
		frontier.ForEach(func(v graph.Vertex) {
			atomic.StoreUint64(&sp[v], sp[v]&^ligra.RoundFlag)
		})
	}
	res.Relaxations = relaxations.Load()
	res.Dist = finalize(sp)
	return res
}
