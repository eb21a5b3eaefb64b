// Package densest finds a 2-approximation of the densest subgraph as
// the densest k-core. It is not one of the paper's four applications,
// but GBBS (the paper's successor system) ships it beside k-core as a
// sibling peeling problem, and here it is exactly that: one bucketed
// coreness peel (kcore.Coreness) and one O(n + m) pass over its
// values, which picks out any k-core (§4.1, footnote 1).
//
// Density of a vertex set S is |E(S)| / |S| (undirected edges).
package densest

import (
	"context"

	"julienne/internal/algo/kcore"
	"julienne/internal/graph"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// Options configures the coreness peel Find runs.
type Options struct {
	// Recorder, when non-nil, receives one RoundMetrics per peeling
	// round plus the bucket structure's counters. Nil disables
	// telemetry with only nil-check overhead.
	Recorder *obs.Recorder
	// Ctx, when non-nil, is checked by the peel (kcore.Options.Ctx); if
	// it is done the run stops and Result.Err reports a *obs.Canceled
	// with partial progress. Nil keeps today's zero-overhead behavior.
	Ctx context.Context
}

// Result describes a dense subgraph.
type Result struct {
	// Vertices of the chosen subgraph (original ids, increasing).
	Vertices []graph.Vertex
	// Density is |E(S)|/|S| of the chosen subgraph.
	Density float64
	// Rounds is the number of rounds of the coreness peel (zero from
	// FromCoreness, which runs none).
	Rounds int64
	// Err is nil on a completed run, or a *obs.Canceled (wrapping
	// obs.ErrCanceled) if the run was stopped by Options.Ctx. A
	// canceled run has no Vertices and no Density: partial coreness
	// values do not give a k-core.
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

func requireSymmetric(g graph.Graph) {
	if !g.Symmetric() {
		panic("densest: requires an undirected graph")
	}
}

// Find computes g's coreness with the bucketed peel (kcore.Coreness,
// given opt) and returns its densest k-core (FromCoreness). The zero
// Options is the plain run.
func Find(g graph.Graph, opt Options) Result {
	requireSymmetric(g)
	core := kcore.Coreness(g, kcore.Options{Recorder: opt.Recorder, Ctx: opt.Ctx})
	if core.Err != nil {
		return Result{Rounds: core.Rounds, Err: core.Err}
	}
	res := FromCoreness(g, core.Coreness)
	res.Rounds = core.Rounds
	return res
}

// FromCoreness returns the densest k-core of g given its coreness
// values, in O(n + m) work: each undirected edge is binned once at the
// lesser coreness of its ends and each vertex at its own, so the
// k-core's edges and vertices are the bins' sums from k up. Ties go to
// the lowest k, the largest set.
//
// That is a 2-approximation. Let S* be an optimal set with density ρ*:
// each of its vertices has at least ρ* neighbours in S*, or removing it
// would leave a denser set, so S* lies inside the ⌈ρ*⌉-core, whose
// every vertex has at least ⌈ρ*⌉ neighbours in it, for a density of at
// least ⌈ρ*⌉/2 ≥ ρ*/2. Charikar's greedy peel keeps the densest set
// between any two of its removal rounds, not only the k-cores, so it
// can find a denser set: on 21 of 180 random graphs of up to 30,000
// vertices it did, by at most 8.8 % (EXPERIMENTS.md, Extensions).
func FromCoreness(g graph.Graph, coreness []uint32) Result {
	requireSymmetric(g)
	n := g.NumVertices()
	if n == 0 {
		return Result{}
	}
	// Each worker fills its own histogram: ends[k] counts edge ends
	// (two per edge, one per self-loop entry, as Density counts them)
	// whose edge lies in the k-core but not the (k+1)-core, verts[k]
	// the vertices of coreness k.
	bins := int(kcore.MaxCoreness(coreness)) + 1
	nw := parallel.WorkersFor(int64(n) + g.NumEdges())
	hist := make([]int64, 2*bins*nw)
	parallel.Workers(n, nw, func(w, lo, hi int) {
		ends, verts := hist[2*bins*w:][:bins], hist[(2*w+1)*bins:][:bins]
		var buf graph.AdjBuf
		for v := lo; v < hi; v++ {
			cv := coreness[v]
			verts[cv]++
			nbrs, _ := g.OutAdj(graph.Vertex(v), &buf)
			for _, u := range nbrs {
				switch {
				case int(u) > v:
					ends[min(cv, coreness[u])] += 2
				case int(u) == v:
					ends[cv]++
				}
			}
		}
	})
	// The suffix walk: from k_max down, ends and verts are the k-core's.
	var ends, verts int64
	best, bestK := 0.0, 0
	for k := bins - 1; k >= 0; k-- {
		for w := range nw {
			ends += hist[2*bins*w+k]
			verts += hist[(2*w+1)*bins+k]
		}
		if d := float64(ends) / 2 / float64(verts); d >= best {
			best, bestK = d, k
		}
	}
	k := uint32(bestK)
	return Result{
		Vertices: parallel.PackIndices(nil, n, func(v int) bool { return coreness[v] >= k }),
		Density:  best,
	}
}
