// Package densest implements Charikar's greedy 2-approximation of the
// densest subgraph. It is not one of the paper's four applications,
// but it is the canonical *next* bucketing-based algorithm the
// framework enables — peeling by remaining degree, exactly like k-core
// — and GBBS (the paper's successor system) ships it. It is the
// "extension" application showing the bucket structure on a fifth
// problem: repeatedly remove the minimum-degree vertices and keep the
// densest intermediate subgraph, in O(m + n) work, like coreness.
//
// Density of a vertex set S is |E(S)| / |S| (undirected edges).
package densest

import (
	"context"
	"sync/atomic"

	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// Options configures the peel.
type Options struct {
	// Recorder, when non-nil, receives one RoundMetrics per peeling
	// round plus the bucket structure's counters. Nil disables
	// telemetry with only nil-check overhead.
	Recorder *obs.Recorder
	// Ctx, when non-nil, is checked once per peeling round; if it is
	// done the run stops and Result.Err reports a *obs.Canceled with
	// partial progress. Nil keeps today's zero-overhead behavior.
	Ctx context.Context
}

// Result describes a dense subgraph.
type Result struct {
	// Vertices of the chosen subgraph (original ids, increasing).
	Vertices []graph.Vertex
	// Density is |E(S)|/|S| of the chosen subgraph.
	Density float64
	// Rounds is the number of peeling rounds executed.
	Rounds int64
	// Err is nil on a completed run, or a *obs.Canceled (wrapping
	// obs.ErrCanceled) if the run was stopped by Options.Ctx. The
	// partial result is the densest prefix seen over the completed
	// rounds — a valid subgraph and density, but without the
	// approximation guarantee.
	Err error
}

// Density computes |E(S)|/|S| for an explicit vertex set over g.
func Density(g graph.Graph, vertices []graph.Vertex) float64 {
	if len(vertices) == 0 {
		return 0
	}
	in := make([]bool, g.NumVertices())
	for _, v := range vertices {
		in[v] = true
	}
	var edges int64
	var buf graph.AdjBuf
	for _, v := range vertices {
		nbrs, _ := g.OutAdj(v, &buf)
		for _, u := range nbrs {
			if in[u] {
				edges++
			}
		}
	}
	return float64(edges) / 2 / float64(len(vertices))
}

// internalEdges counts the edges with both endpoints in the peeled
// frontier: one EdgeMapFilterCount (a decode buffer per worker) whose
// per-vertex counts see each such edge from both ends. dst is the
// caller's per-run destination.
func internalEdges(g graph.Graph, frontier ligra.VertexSubset,
	peeled func(_, u graph.Vertex) bool, dst *ligra.Tagged[uint32]) int64 {

	counts := ligra.EdgeMapFilterCount(g, frontier, peeled, dst).Vals
	return parallel.Sum(len(counts), 0, func(i int) int64 { return int64(counts[i]) }) / 2
}

func requireSymmetric(g graph.Graph) {
	if !g.Symmetric() {
		panic("densest: requires an undirected graph")
	}
}

// Charikar runs the greedy peel (2-approximation): vertices are
// removed in min-degree-first order via the bucket structure; after
// each bucket is peeled the remaining subgraph's density is recorded,
// and the densest intermediate subgraph wins. Peeling a whole bucket
// at a time keeps the classic guarantee. Let S* be an optimal set with
// density ρ*: each of its vertices has at least ρ* neighbours in S*,
// or removing it would leave a denser set. Say the first vertex of S*
// falls at bucket k. It was live beside all of S*, so its degree, at
// most k when it fell, was at least ρ*. When bucket k was first
// extracted every live vertex had degree at least k, so the survivors
// recorded just before that round have density at least k/2 ≥ ρ*/2.
// The zero Options is the plain run.
func Charikar(g graph.Graph, opt Options) Result {
	requireSymmetric(g)
	n := g.NumVertices()
	if n == 0 {
		return Result{}
	}
	d := make([]uint32, n)
	parallel.For(n, parallel.DefaultGrain, func(v int) {
		d[v] = uint32(g.OutDegree(graph.Vertex(v)))
	})
	lp := bucket.Loop{Algo: "densest", Recorder: opt.Recorder, Ctx: opt.Ctx}
	b := lp.New(n, func(i uint32) bucket.ID { return d[i] }, bucket.Increasing, bucket.Options{})

	alive := int64(n)
	liveEdges := g.NumEdges() / 2 // undirected edges
	bestDensity := float64(liveEdges) / float64(alive)
	bestAlive := alive
	var round int64               // the round being peeled
	removedAt := make([]int64, n) // round at which each vertex fell (1-based)
	// The round's one primitive, its destination and the updateBuckets
	// feed are built once; a round reads its bucket from k.
	var k bucket.ID
	var removedEdges atomic.Int64
	var moved ligra.Tagged[bucket.Dest]
	// The round's condition is d[v] > k: a removed vertex's d is frozen
	// at the bucket it was peeled from, at most k, and every vertex still
	// at k is in the round's bucket, removed before the counting. So it
	// admits exactly removedAt[v] == 0, and update only sees d[v] > k.
	wasLive := func(v graph.Vertex) bool { return removedAt[v] == 0 }
	update := func(v graph.Vertex, removed uint32) (bucket.Dest, bool) {
		removedEdges.Add(int64(removed))
		induced := d[v]
		newD := max(induced-removed, k)
		d[v] = newD
		dest := b.GetBucket(induced, newD)
		return dest, dest != bucket.None
	}
	feed := func(j int) (uint32, bucket.Dest) { return moved.IDs[j], moved.Vals[j] }
	var internal ligra.Tagged[uint32]
	peeled := func(_, u graph.Vertex) bool { return removedAt[u] == round }

	rounds, err := lp.Run(b, func(bkt, _ bucket.ID, ids []uint32) (int64, bool) {
		k = bkt
		round++
		frontier := ligra.FromSparse(n, ids)
		parallel.For(len(ids), parallel.DefaultGrain, func(i int) {
			removedAt[ids[i]] = round
		})
		// Count removed edges per live neighbor, and rebucket them as
		// in Algorithm 1.
		removedEdges.Store(0)
		live := ligra.Above{D: d, K: k}
		ligra.DebugCheckAbove("densest", live, wasLive)
		ligra.EdgeMapSum(g, frontier, live, update, &moved)
		// Edges internal to the peeled set fall too (each counted once
		// per endpoint among peeled vertices, halved), plus edges to
		// survivors (counted once, above). Recompute exactly: an edge
		// dies when its first endpoint dies. This must read ids before
		// UpdateBuckets below: the slice aliases the bucket arena,
		// which that call invalidates.
		removed := removedEdges.Load() + internalEdges(g, frontier, peeled, &internal)
		b.UpdateBuckets(moved.Size(), feed)
		alive -= int64(len(ids))
		liveEdges -= removed
		if alive > 0 {
			density := float64(liveEdges) / float64(alive)
			if density > bestDensity {
				bestDensity = density
				bestAlive = alive
			}
		}
		return removed, alive == 0
	})
	// Reconstruct the best prefix: the survivors just before density
	// peaked are exactly the vertices removed in the latest rounds.
	// Find the cutoff round: survivors after round r = vertices with
	// removedAt > r; pick r such that survivor count == bestAlive.
	return Result{
		Vertices: survivorsOfSize(removedAt, bestAlive),
		Density:  bestDensity,
		Rounds:   rounds,
		Err:      err,
	}
}

// survivorsOfSize returns the vertex set consisting of the `want`
// longest-surviving vertices (ties broken by taking whole rounds; the
// recorded density corresponds to a whole-round cut, so an exact-size
// cut always exists).
func survivorsOfSize(removedAt []int64, want int64) []graph.Vertex {
	if want <= 0 {
		return nil
	}
	// Count how many vertices fall in each round.
	maxRound := int64(0)
	for _, r := range removedAt {
		if r > maxRound {
			maxRound = r
		}
	}
	fallen := make([]int64, maxRound+1)
	for _, r := range removedAt {
		fallen[r]++
	}
	n := int64(len(removedAt))
	cut := int64(0) // survivors after round `cut` have removedAt > cut
	survivors := n
	for r := int64(1); r <= maxRound && survivors != want; r++ {
		survivors -= fallen[r]
		cut = r
	}
	return parallel.PackIndices(len(removedAt), func(v int) bool {
		return removedAt[v] > cut || removedAt[v] == 0
	})
}
