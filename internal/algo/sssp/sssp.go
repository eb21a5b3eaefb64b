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
//     (up to O(mn)) but simple and dense-traversal friendly.
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
	"sync/atomic"

	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// Unreachable is the distance reported for vertices not connected to
// the source.
const Unreachable int64 = -1

// inf is the internal "not reached" distance. It leaves the top bit
// free for the visited flag (§4.2: "our actual implementation uses the
// highest bit of SP to represent Fl").
const inf uint64 = math.MaxUint64 >> 1

// flag marks a vertex whose distance changed in the current round; the
// vertex that sets it captures the pre-round distance for rebucketing.
const flag uint64 = 1 << 63

// Result carries distances plus the measurements the harness reports.
type Result struct {
	// Rounds is the number of frontier/bucket rounds executed.
	Rounds int64
	// Relaxations counts successful distance improvements. The relax
	// loops count into an atomic.Int64 of their own and copy it here
	// once, at the end of the run.
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

// finalize converts the internal distance array to the public form.
func finalize(sp []uint64) []int64 {
	out := make([]int64, len(sp))
	parallel.For(len(sp), parallel.DefaultGrain, func(i int) {
		d := sp[i] &^ flag
		if d >= inf {
			out[i] = Unreachable
		} else {
			out[i] = int64(d)
		}
	})
	return out
}

// load returns the current distance of v, ignoring the round flag.
func load(sp []uint64, v graph.Vertex) uint64 {
	return atomic.LoadUint64(&sp[v]) &^ flag
}

// relaxCapture attempts the relaxation s→d with edge weight w
// (Algorithm 2, Update): on improvement it writeMins the distance,
// counts the relaxation in relaxations, and sets the round flag; the
// caller that transitions the flag from clear to set captures the
// pre-round distance (returned with ok=true).
func relaxCapture(sp []uint64, relaxations *atomic.Int64, s, d graph.Vertex, w graph.Weight) (uint64, bool) {
	nDist := load(sp, s) + uint64(w)
	for {
		old := atomic.LoadUint64(&sp[d])
		oDist := old &^ flag
		if nDist >= oDist {
			return 0, false
		}
		if atomic.CompareAndSwapUint64(&sp[d], old, flag|nDist) {
			relaxations.Add(1)
			if old&flag == 0 {
				return oDist, true // unique capturer this round
			}
			return 0, false
		}
	}
}
