// Package sssp solves single-source shortest paths on graphs with
// non-negative integral edge weights. It contains the paper's bucketed
// algorithms and every baseline its evaluation compares against:
//
//   - DeltaStepping: Algorithm 2 (§4.2) on the bucket structure; bucket
//     i holds the annulus of vertices at distance [i∆, (i+1)∆). With
//     ∆ = 1 this is wBFS, with work O(r_src + m) in expectation and
//     depth O(r_src log n) w.h.p. (Theorem 4.2).
//   - WBFS: DeltaStepping with ∆ = 1.
//   - BellmanFord: the frontier-based algorithm Ligra and most
//     frameworks use for SSSP; work-inefficient on weighted graphs
//     (up to O(mn)) but simple: ∆-stepping's relaxation round with
//     one unbounded bucket and no bucket structure.
//   - DeltaSteppingBins: a GAP-benchmark-style ∆-stepping that keeps
//     thread-local bins instead of a shared bucket structure.
//   - DijkstraHeap: the sequential binary-heap Dijkstra solver (the
//     DIMACS-style sequential baseline of Table 3).
//
// All implementations agree exactly on the distance vector; the tests
// enforce this pairwise on every graph family.
package sssp

import (
	"fmt"
	"math"

	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
)

// Unreachable is the distance reported for vertices not connected to
// the source.
const Unreachable int64 = -1

// inf is the internal "not reached" distance. It leaves the top bit
// free for ligra.RoundFlag, which marks a vertex whose distance changed
// in the current round.
const inf uint64 = math.MaxUint64 >> 1

// Result carries distances plus the measurements the harness reports.
type Result struct {
	// Rounds is the number of frontier/bucket rounds executed.
	Rounds int64
	// Relaxations counts successful distance improvements.
	Relaxations int64
	// EdgesTraversed counts edge visits (frontier out-degrees summed).
	EdgesTraversed int64
	// Dist[v] is the shortest-path distance from the source to v, or
	// Unreachable.
	Dist []int64
	// BucketStats is the bucket-structure traffic (bucketed algorithms
	// only).
	BucketStats bucket.Stats
	// Err is nil on a completed run, or a *obs.Canceled (wrapping
	// obs.ErrCanceled) if the run was stopped by Options.Ctx. Dist
	// still covers every vertex, but distances not yet settled when the
	// run stopped may exceed the true shortest-path distance (or be
	// Unreachable).
	Err error
}

func checkInput(g graph.Graph, src graph.Vertex) {
	if !g.Weighted() {
		panic("sssp: graph must be weighted")
	}
	if int(src) >= g.NumVertices() {
		panic(fmt.Sprintf("sssp: source %d out of range for n=%d", src, g.NumVertices()))
	}
}

// finalize rewrites a run's distance array into the public form, in
// place: the round flag cleared and an unreached vertex Unreachable.
// The array a run relaxed is its answer; nothing is copied.
func finalize(dist []int64) []int64 {
	parallel.For(len(dist), parallel.DefaultGrain, func(i int) {
		if d := uint64(dist[i]) &^ ligra.RoundFlag; d >= inf {
			dist[i] = Unreachable
		} else {
			dist[i] = int64(d)
		}
	})
	return dist
}
