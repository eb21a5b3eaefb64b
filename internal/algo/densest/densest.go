// Package densest implements approximate densest-subgraph algorithms.
// They are not one of the paper's four applications, but they are the
// canonical *next* bucketing-based algorithm the framework enables —
// peeling by remaining degree, exactly like k-core — and GBBS (the
// paper's successor system) ships them. Implemented here as the
// "extension" application demonstrating the bucket structure beyond
// the paper's four:
//
//   - Charikar: the exact greedy 2-approximation — repeatedly remove a
//     minimum-degree vertex, track the densest prefix. Implemented
//     work-efficiently on the bucket structure: O(m + n) work, like
//     coreness.
//   - PeelBatch: the Bahmani–Kumar–Vassilvitskii batch peeling
//     (2+2ε)-approximation — each round removes every vertex with
//     degree ≤ 2(1+ε)·ρ(S), finishing in O(log_{1+ε} n) rounds. Fully
//     parallel via the Ligra layer.
//
// Density of a vertex set S is |E(S)| / |S| (undirected edges).
package densest

import (
	"context"
	"sync/atomic"
	"time"

	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// Options configures the peeling algorithms.
type Options struct {
	// Recorder, when non-nil, receives one RoundMetrics per peeling
	// round plus the bucket structure's counters (Charikar only;
	// PeelBatch has no bucket structure). Nil disables telemetry with
	// only nil-check overhead.
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
	edges := parallel.Sum(len(vertices), 0, func(i int) int64 {
		var c int64
		g.OutNeighbors(vertices[i], func(u graph.Vertex, w graph.Weight) bool {
			if in[u] {
				c++
			}
			return true
		})
		return c
	})
	return float64(edges) / 2 / float64(len(vertices))
}

func requireSymmetric(g graph.Graph) {
	if !g.Symmetric() {
		panic("densest: requires an undirected graph")
	}
}

// Charikar runs the exact greedy peel (2-approximation): vertices are
// removed in min-degree-first order via the bucket structure; after
// each bucket is peeled the remaining subgraph's density is recorded,
// and the densest intermediate subgraph wins. Peeling a whole bucket
// at a time preserves the classic guarantee: the analysis only needs
// that when the optimum's first vertex is peeled, every remaining
// vertex (hence every vertex of the optimum S*) has degree ≥ the
// minimum degree being peeled, and ρ* ≤ max-min-degree/... — the
// recorded density at the round *before* any vertex of the best
// prefix falls is at least ρ*/2.
func Charikar(g graph.Graph) Result {
	return CharikarWithOptions(g, Options{})
}

// CharikarWithOptions is Charikar with cancellation support.
func CharikarWithOptions(g graph.Graph, opt Options) Result {
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
	live := func(v graph.Vertex) bool { return removedAt[v] == 0 }
	update := func(v graph.Vertex, removed uint32) (bucket.Dest, bool) {
		removedEdges.Add(int64(removed))
		induced := d[v]
		if induced <= k {
			return bucket.None, false // already in (or below) cur
		}
		newD := max(induced-removed, k)
		d[v] = newD
		dest := b.GetBucket(induced, newD)
		return dest, dest != bucket.None
	}
	feed := func(j int) (uint32, bucket.Dest) { return moved.IDs[j], moved.Vals[j] }

	rounds, err := lp.Run(b, func(bkt, _ bucket.ID, ids []uint32) (int64, bool) {
		k = bkt
		round++
		frontier := ligra.FromSparse(n, ids)
		parallel.For(len(ids), parallel.DefaultGrain, func(i int) {
			removedAt[ids[i]] = round
		})
		// Count removed edges per *every* live neighbor (edges to
		// survivors sitting at degree exactly k must be accounted even
		// though those survivors cannot move buckets), and rebucket
		// the neighbors above the current bucket as in Algorithm 1.
		removedEdges.Store(0)
		ligra.EdgeMapSum(g, frontier, live, update, &moved)
		// Edges internal to the peeled set fall too (each counted once
		// per endpoint among peeled vertices, halved), plus edges to
		// survivors (counted once, above). Recompute exactly: an edge
		// dies when its first endpoint dies. This must read ids before
		// UpdateBuckets below: the slice aliases the bucket arena,
		// which that call invalidates.
		internal := parallel.Sum(len(ids), 0, func(i int) int64 {
			var c int64
			g.OutNeighbors(ids[i], func(u graph.Vertex, w graph.Weight) bool {
				if removedAt[u] == round {
					c++
				}
				return true
			})
			return c
		})
		removed := removedEdges.Load() + internal/2
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

// PeelBatch is the Bahmani et al. parallel batch peel: while vertices
// remain, remove every vertex with degree ≤ 2(1+ε)·ρ(S). The densest
// intermediate S is a (2+2ε)-approximation, reached in
// O(log_{1+ε} n) rounds.
func PeelBatch(g graph.Graph, eps float64) Result {
	return PeelBatchWithOptions(g, eps, Options{})
}

// PeelBatchWithOptions is PeelBatch with cancellation support.
func PeelBatchWithOptions(g graph.Graph, eps float64, opt Options) Result {
	requireSymmetric(g)
	if eps <= 0 {
		eps = 0.1
	}
	n := g.NumVertices()
	if n == 0 {
		return Result{}
	}
	d := make([]uint32, n)
	dead := make([]uint32, n)
	parallel.For(n, parallel.DefaultGrain, func(v int) {
		d[v] = uint32(g.OutDegree(graph.Vertex(v)))
	})
	alive := int64(n)
	liveEdges := g.NumEdges() / 2
	bestDensity := float64(liveEdges) / float64(alive)
	bestAlive := alive
	round := uint32(0)
	var rounds int64
	// edgeMapSum lowers each live neighbor's degree by the edges it
	// lost; nothing is kept, so the destination only lends its counters.
	var removedEdges atomic.Int64
	var touched ligra.Tagged[struct{}]
	live := func(v graph.Vertex) bool { return dead[v] == 0 }
	update := func(v graph.Vertex, removed uint32) (struct{}, bool) {
		d[v] -= removed
		removedEdges.Add(int64(removed))
		return struct{}{}, false
	}
	var runErr error
	rec := opt.Recorder
	cancel := obs.NewCancelCheck(opt.Ctx)
	for alive > 0 {
		if cause := cancel.Stopped(); cause != nil {
			runErr = rec.NewCanceled("densest", rounds, cause)
			break
		}
		begin := rec.Clock()
		rounds++
		round++
		rho := float64(liveEdges) / float64(alive)
		threshold := 2 * (1 + eps) * rho
		ids := parallel.PackIndices(n, func(v int) bool {
			return dead[v] == 0 && float64(d[v]) <= threshold
		})
		if len(ids) == 0 {
			break // cannot happen mathematically, but guard float edges
		}
		parallel.For(len(ids), parallel.DefaultGrain, func(i int) {
			dead[ids[i]] = round
		})
		removedEdges.Store(0)
		ligra.EdgeMapSum(g, ligra.FromSparse(n, ids), live, update, &touched)
		internal := parallel.Sum(len(ids), 0, func(i int) int64 {
			var c int64
			g.OutNeighbors(ids[i], func(u graph.Vertex, w graph.Weight) bool {
				if dead[u] == round {
					c++
				}
				return true
			})
			return c
		})
		removed := removedEdges.Load() + internal/2
		alive -= int64(len(ids))
		liveEdges -= removed
		if alive > 0 {
			density := float64(liveEdges) / float64(alive)
			if density > bestDensity {
				bestDensity = density
				bestAlive = alive
			}
		}
		if rec != nil {
			rec.RecordRound(obs.RoundMetrics{
				Algo: "densest", Round: rounds, Bucket: ^uint32(0),
				FrontierSize: len(ids), EdgesTraversed: removed,
				Duration: time.Since(begin),
			})
		}
	}
	// Reconstruct the best survivor set by round cut, as in Charikar.
	removedAt := make([]int64, n)
	parallel.For(n, parallel.DefaultGrain, func(v int) {
		removedAt[v] = int64(dead[v])
	})
	return Result{
		Vertices: survivorsOfSize(removedAt, bestAlive),
		Density:  bestDensity,
		Rounds:   rounds,
		Err:      runErr,
	}
}
