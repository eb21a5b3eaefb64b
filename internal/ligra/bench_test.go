package ligra

import (
	"cmp"
	"slices"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/parallel"
	"julienne/internal/rng"
)

func benchFrontier(g graph.Graph, frac int) VertexSubset {
	n := g.NumVertices()
	return FromSparse(n, parallel.PackIndices(nil, n, func(v int) bool { return v%frac == 0 }))
}

func BenchmarkEdgeMapSparse(b *testing.B) {
	g := gen.RMAT(1<<14, 1<<17, true, 1)
	u := benchFrontier(g, 16)
	always := func(graph.Vertex) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeMap(g, u, always,
			func(s, d graph.Vertex, w graph.Weight) bool { return false },
			EdgeMapOptions{NoDense: true})
	}
}

func BenchmarkEdgeMapDense(b *testing.B) {
	g := gen.RMAT(1<<14, 1<<17, true, 1)
	u := benchFrontier(g, 2)
	always := func(graph.Vertex) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeMap(g, u, always,
			func(s, d graph.Vertex, w graph.Weight) bool { return false },
			EdgeMapOptions{})
	}
}

// BenchmarkEdgeMapWriteMin measures ∆-stepping's relaxation step, in
// ns per edge of the frontier; each iteration restores the distances
// first (n words).
//
//   - all: every vertex of graph.BenchmarkOutAdjTraversal's shape —
//     2¹⁴ vertices, 2¹⁸ uniform directed edges — weighted, so the two
//     read side by side in one `make microbench` run;
//   - rmat-shuffled: a quarter of the vertices of delta-rmat's graph
//     (RMAT 2¹⁷, 16·2¹⁷ symmetrized edges, heavy weights) in a random
//     order, past m/20, so the call relaxes them in identifier order;
//     at P=1 on the caller with plain stores, at P=2 forked, through
//     the atomic leaf.
func BenchmarkEdgeMapWriteMin(b *testing.B) {
	b.Run("all", func(b *testing.B) {
		g := gen.UniformWeights(gen.ErdosRenyi(1<<14, 1<<18, false, 1), 1, 1<<10, 1)
		n := g.NumVertices()
		benchWriteMin(b, g, Frontier(g, All(n).Sparse()), 1)
	})
	g := gen.HeavyWeights(gen.RMAT(1<<17, 16<<17, true, 1), 1)
	ids := parallel.PackIndices(nil, g.NumVertices(), func(v int) bool { return v%4 == 0 })
	slices.SortFunc(ids, func(a, c graph.Vertex) int {
		return cmp.Compare(rng.UintNAt(2, uint64(a), 1<<62), rng.UintNAt(2, uint64(c), 1<<62))
	})
	b.Run("rmat-shuffled", func(b *testing.B) { benchWriteMin(b, g, Frontier(g, ids), 1) })
	b.Run("rmat-shuffled-p2", func(b *testing.B) { benchWriteMin(b, g, Frontier(g, ids), 2) })
}

// benchWriteMin times EdgeMapWriteMin over u on g at P=procs from the
// same random distances each iteration and reports ns per edge of u.
// One untimed call first grows the destination and the scratch pool's
// parts to the output's size, so B/op is the steady state's; a forked
// call's output varies with the race, so at P=2 a larger one can still
// grow them. The
// testing package sets GOMAXPROCS for each sub-benchmark it runs, so P
// is set here, not in the parent.
func benchWriteMin(b *testing.B, g graph.Graph, u VertexSubset, procs int) {
	defer parallel.SetProcs(parallel.SetProcs(procs))
	n := g.NumVertices()
	start, dist := make([]int64, n), make([]int64, n)
	for v := range start {
		start[v] = int64(rng.UintNAt(1, uint64(v), 1<<20))
	}
	var moved Tagged[uint64]
	copy(dist, start)
	EdgeMapWriteMin(g, u, dist, &moved)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dist, start)
		EdgeMapWriteMin(g, u, dist, &moved)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*u.OutDegreeSum(g)), "ns/edge")
}
