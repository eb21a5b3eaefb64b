package julienne_test

import (
	"fmt"
	"slices"

	"julienne"
)

// Example is the quick start of README.md and doc.go, which
// TestQuickStartIsExample holds to this body: the four applications of
// the paper on small generated inputs.
func Example() {
	g := julienne.RMAT(1<<10, 1<<13, true, 42) // undirected social-style graph
	core := julienne.KCoreWithOptions(g, julienne.KCoreOptions{})
	fmt.Println("max coreness", slices.Max(core.Coreness))

	wg := julienne.LogWeights(g, 1) // weights in [1, log n)
	wbfs := julienne.WBFSWithOptions(wg, 0, julienne.SSSPOptions{})
	delta := julienne.DeltaSteppingWithOptions(wg, 0, 4, julienne.SSSPOptions{})
	fmt.Println("wBFS = ∆-stepping:", slices.Equal(wbfs.Dist, delta.Dist))

	inst := julienne.NewSetCoverInstance(1<<8, 1<<11, 4, 7)
	cover := julienne.ApproxSetCover(inst.Graph, inst.Sets, julienne.SetCoverOptions{})
	fmt.Println("sets chosen", cover.CoverSize)
	// Output:
	// max coreness 25
	// wBFS = ∆-stepping: true
	// sets chosen 209
}

// ExampleKCoreWithOptions computes the coreness decomposition of a
// small graph: a triangle with a pendant vertex. The zero options are
// the plain call.
func ExampleKCoreWithOptions() {
	g := julienne.FromEdges(4, []julienne.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3},
	}, julienne.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	fmt.Println(julienne.KCoreWithOptions(g, julienne.KCoreOptions{}).Coreness)
	// Output: [2 2 2 1]
}

// ExampleWBFSWithOptions runs weighted BFS on a weighted path
// 0 -5- 1 -3- 2.
func ExampleWBFSWithOptions() {
	g := julienne.FromEdges(3, []julienne.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 3},
	}, julienne.BuildOptions{Weighted: true, Symmetrize: true, DropSelfLoops: true, Dedup: true})
	fmt.Println(julienne.WBFSWithOptions(g, 0, julienne.SSSPOptions{}).Dist)
	// Output: [0 5 8]
}

// ExampleNewBuckets drives the bucket structure directly: three
// identifiers in buckets 2, 0 and 5 come out in increasing order.
func ExampleNewBuckets() {
	d := []julienne.BucketID{2, 0, 5}
	b := julienne.NewBuckets(3, func(i uint32) julienne.BucketID { return d[i] },
		julienne.IncreasingBuckets, julienne.BucketOptions{})
	for {
		id, ids := b.NextBucket()
		if id == julienne.NilBucket {
			break
		}
		fmt.Println(id, ids)
	}
	// Output:
	// 0 [1]
	// 2 [0]
	// 5 [2]
}

// ExampleNewBuckets_weightedBFS writes a bucketed algorithm by hand on
// the public interface: Algorithm 2 with ∆ = 1 (weighted BFS). D maps
// a vertex to its tentative distance, each round relaxes the out-edges
// of the next bucket, and the improved vertices move in one
// UpdateBuckets batch. It runs sequentially for clarity; the library's
// kernel is the same loop with atomic relaxations. Its distances equal
// Dijkstra's.
func ExampleNewBuckets_weightedBFS() {
	g := julienne.FromEdges(6, []julienne.Edge{
		{U: 0, V: 1, W: 7}, {U: 0, V: 2, W: 1}, {U: 2, V: 1, W: 3},
		{U: 2, V: 3, W: 2}, {U: 3, V: 4, W: 3}, {U: 1, V: 4, W: 1},
	}, julienne.BuildOptions{Weighted: true, Symmetrize: true, DropSelfLoops: true, Dedup: true})

	const inf = int64(1) << 60
	dist := make([]int64, g.NumVertices())
	for v := range dist {
		dist[v] = inf
	}
	dist[0] = 0
	d := func(v uint32) julienne.BucketID {
		if dist[v] == inf {
			return julienne.NilBucket
		}
		return julienne.BucketID(dist[v])
	}
	b := julienne.NewBuckets(g.NumVertices(), d, julienne.IncreasingBuckets, julienne.BucketOptions{})
	var ids []uint32
	var dests []julienne.BucketDest
	var buf julienne.AdjBuf
	for {
		cur, frontier := b.NextBucket()
		if cur == julienne.NilBucket {
			break
		}
		ids, dests = ids[:0], dests[:0]
		for _, v := range frontier {
			nbrs, ws := g.OutAdj(julienne.Vertex(v), &buf)
			for i, u := range nbrs {
				if nd := dist[v] + int64(ws[i]); nd < dist[u] {
					prev := d(uint32(u))
					dist[u] = nd
					if dest := b.GetBucket(prev, julienne.BucketID(nd)); dest != julienne.NoBucketDest {
						ids = append(ids, uint32(u))
						dests = append(dests, dest)
					}
				}
			}
		}
		b.UpdateBuckets(len(ids), func(j int) (uint32, julienne.BucketDest) {
			return ids[j], dests[j]
		})
	}
	for v := range dist {
		if dist[v] == inf {
			dist[v] = julienne.UnreachableDist
		}
	}
	fmt.Println(dist)
	fmt.Println(julienne.Dijkstra(g, 0).Dist)
	// Output:
	// [0 4 1 3 5 -1]
	// [0 4 1 3 5 -1]
}

// ExampleApproxSetCover solves a tiny instance: set 0 covers elements
// {3,4,5}, set 1 covers {4,5}, set 2 covers {6}.
func ExampleApproxSetCover() {
	g := julienne.FromEdges(7, []julienne.Edge{
		{U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5},
		{U: 1, V: 4}, {U: 1, V: 5},
		{U: 2, V: 6},
	}, julienne.BuildOptions{DropSelfLoops: true, Dedup: true})
	res := julienne.ApproxSetCover(g, 3, julienne.SetCoverOptions{})
	fmt.Println(res.InCover, res.CoverSize)
	// Output: [true false true] 2
}

// ExampleDeltaSteppingWithOptions shows the ∆ parameter trading rounds
// for work.
func ExampleDeltaSteppingWithOptions() {
	g := julienne.FromEdges(3, []julienne.Edge{
		{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 10}, {U: 0, V: 2, W: 25},
	}, julienne.BuildOptions{Weighted: true, Symmetrize: true, DropSelfLoops: true, Dedup: true})
	fmt.Println(julienne.DeltaSteppingWithOptions(g, 0, 8, julienne.SSSPOptions{}).Dist)
	// Output: [0 10 20]
}

// ExampleDensestSubgraphWithOptions finds the densest part of a clique
// with a pendant path attached.
func ExampleDensestSubgraphWithOptions() {
	edges := []julienne.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}, // K4
		{U: 3, V: 4}, {U: 4, V: 5}, // pendant path
	}
	g := julienne.FromEdges(6, edges,
		julienne.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	res := julienne.DensestSubgraphWithOptions(g, julienne.DensestOptions{})
	fmt.Println(len(res.Vertices), res.Density)
	// Output: 4 1.5
}
