package sssp

import (
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
)

// BellmanFord is the frontier-based SSSP algorithm found in Ligra and
// most graph frameworks: every round relaxes all out-edges of the
// vertices whose distance changed in the previous round. It converges
// in at most h rounds where h is the maximum hop count of a shortest
// path, doing up to O(m) work per round — simple, and work-inefficient
// on weighted graphs, which is exactly the baseline role it plays in
// Table 3 and Figures 3–4.
//
// A round is ∆-stepping's relaxation (ligra.EdgeMapWriteMin) with no
// bucket structure around it: Bellman-Ford is ∆-stepping with one
// unbounded bucket, and at P=1 the two agree in distances, rounds,
// relaxations and edges traversed. The round flag performs Ligra's
// duplicate removal: the first relaxer to lower v this round puts v in
// the next frontier.
func BellmanFord(g graph.Graph, src graph.Vertex) Result {
	checkInput(g, src)
	n := g.NumVertices()
	sp := make([]int64, n)
	parallel.For(n, parallel.DefaultGrain, func(i int) { sp[i] = int64(inf) })
	sp[src] = 0

	var res Result
	// The two destinations alternate, each round's output the next
	// round's frontier; they are borrowed for the run, and the flag
	// clear is built once, so a round allocates nothing.
	parallel.WithScratch(2, func(ds []ligra.Tagged[uint64]) {
		var ids []graph.Vertex
		unflag := func(_, lo, hi int) {
			for _, v := range ids[lo:hi] {
				sp[v] = int64(uint64(sp[v]) &^ ligra.RoundFlag)
			}
		}
		frontier := ligra.Frontier(g, []graph.Vertex{src})
		for r := 0; !frontier.IsEmpty(); r ^= 1 {
			res.Rounds++
			res.EdgesTraversed += frontier.OutDegreeSum(g)
			out, relaxed := ligra.EdgeMapWriteMin(g, frontier, sp, &ds[r])
			res.Relaxations += relaxed
			ids = out.IDs
			parallel.Workers(len(ids), parallel.WorkersFor(int64(len(ids))), unflag)
			frontier = ligra.Frontier(g, ids)
		}
	})
	res.Dist = finalize(sp)
	return res
}
