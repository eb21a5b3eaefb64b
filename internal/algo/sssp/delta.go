package sssp

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

// Options configures the bucketed SSSP algorithms.
type Options struct {
	// Buckets is passed through to the bucket structure.
	Buckets bucket.Options
	// Recorder, when non-nil, receives one RoundMetrics per ∆-stepping
	// round plus the bucket structure's counters. Nil disables
	// telemetry with only nil-check overhead.
	Recorder *obs.Recorder
	// Ctx, when non-nil, is checked once per bucket round; if it is
	// done the run stops and Result.Err reports a *obs.Canceled with
	// partial progress. Nil keeps today's zero-overhead behavior.
	Ctx context.Context
	// Deadline, when non-zero, stops the run once it passes (checked
	// once per round, composing with Ctx — whichever trips first).
	Deadline time.Time
	// Fusion enables fused bucket extraction (bucket.Loop, DESIGN.md
	// §11): runs of consecutive small buckets drain into one frontier,
	// and vertices relaxed back into the fused span are processed in
	// the same round via the lazy buffer instead of round-tripping
	// through bucket storage. This is safe for the algorithms in this
	// package because their priorities are monotone — with non-negative
	// weights a relaxation never lands behind the bucket that produced
	// it — and it pays off on large-diameter inputs where per-round
	// synchronization dominates. The zero value disables fusion and
	// reproduces the classic loop exactly. kcore and setcover expose no
	// such knob on purpose: peeling moves identifiers in both
	// directions relative to the traversal, so fusing their rounds
	// would change the computed cores/covers.
	Fusion bucket.Fusion
}

// waves is the state DeltaStepping shares with its per-segment body.
type waves struct {
	// relaxations is Result.Relaxations while the run is in flight: the
	// relax workers add to it concurrently.
	relaxations atomic.Int64
	edges       int64
	udelta      uint64
	g           graph.Graph
	// sp holds the tentative distances, one per vertex; the flag bit
	// marks a vertex whose distance changed in the current round.
	sp []uint64
	b  *bucket.Par
}

// bktOf is GetBucketNum of Algorithm 2 (line 3): bucket i is the
// annulus of tentative distances [i∆, (i+1)∆).
func (w *waves) bktOf(dist uint64) bucket.ID {
	if dist >= inf {
		return bucket.Nil
	}
	b := dist / w.udelta
	if b >= uint64(bucket.Nil) {
		panic("sssp: distance/delta exceeds the bucket id space; increase delta")
	}
	return bucket.ID(b)
}

// DeltaStepping implements Algorithm 2 of the paper: bucketed
// ∆-stepping where bucket i is the annulus of tentative distances
// [i∆, (i+1)∆). Unreached vertices are outside the structure (their D
// is Nil) and enter it on first relaxation, so the work is proportional
// to edges relaxed, not to n per round. WBFS is its ∆ = 1 call.
//
// With opt.Fusion enabled, bucket.Loop extracts fused bucket ranges
// [id, last] and hands the vertices relaxed back into a range to the
// same segment body as further segments of the wave (DESIGN.md §11).
func DeltaStepping(g graph.Graph, src graph.Vertex, delta int64, opt Options) Result {
	checkInput(g, src)
	if delta <= 0 {
		panic("sssp: delta must be positive")
	}
	n := g.NumVertices()
	w := &waves{g: g, udelta: uint64(delta), sp: make([]uint64, n)}
	parallel.For(n, parallel.DefaultGrain, func(i int) { w.sp[i] = inf })
	w.sp[src] = 0
	lp := bucket.Loop{Algo: "sssp", Recorder: opt.Recorder, Ctx: opt.Ctx, Deadline: opt.Deadline, Fusion: opt.Fusion}
	w.b = lp.New(n, func(i uint32) bucket.ID { return w.bktOf(w.sp[i] &^ flag) },
		bucket.Increasing, opt.Buckets)
	var res Result
	res.Rounds, res.Err = lp.Run(w.b, deltaSegment(w))
	res.Relaxations = w.relaxations.Load()
	res.EdgesTraversed = w.edges
	res.BucketStats = w.b.Stats()
	res.Dist = finalize(w.sp)
	return res
}

// deltaSegment builds Algorithm 2's round over the initialized run:
// one segment is one relaxation round over the frontier ids drawn from
// the bucket range [id, last], rebucketing what moved. ids aliases the
// bucket structure's arena: valid only until the body's next call into
// the structure.
//
// Not inlined into DeltaStepping on purpose: in the copy the inliner
// makes of the relax literal, relaxCapture is an out-of-line call on
// the per-edge path.
//
//go:noinline
func deltaSegment(w *waves) func(id, last bucket.ID, ids []uint32) (int64, bool) {
	// The counter pointer is taken once, here: &w.relaxations inside
	// relax would nil-check w by loading its first word on every call,
	// and that word shares a cache line with the counter every worker is
	// adding to (measured: +28% on the RMAT ∆-stepping run at P=2).
	g, sp, b, relaxations := w.g, w.sp, w.b, &w.relaxations
	relax := func(s, dst graph.Vertex, wt graph.Weight) (uint64, bool) {
		return relaxCapture(sp, relaxations, s, dst, wt)
	}
	// The segment's closures and the two destinations they fill are
	// built once per run; a segment reads its bucket range from id and
	// last and allocates nothing (the bucket structure's chunks aside).
	var id, last bucket.ID
	var moved ligra.Tagged[uint64]
	var rebucket ligra.Tagged[bucket.Dest]
	// Reset (lines 11–13): clear the round flag and compute each
	// vertex's bucket move from its start-of-round bucket to its new
	// bucket.
	reset := func(v graph.Vertex, oldDist uint64) (bucket.Dest, bool) {
		newDist := sp[v] &^ flag
		sp[v] = newDist
		prevB, newB := w.bktOf(oldDist), w.bktOf(newDist)
		if newB == prevB && newB >= id && newB <= last {
			// v sat in the current bucket range and was improved to a
			// distance still inside it. The extraction consumed its
			// physical copy, so "no logical move" must still reinsert
			// it (the light-edge iteration of ∆-stepping); prev = Nil
			// states the physical truth. Under fusion the structure
			// routes this to the lazy buffer for the next segment.
			prevB = bucket.Nil
		}
		dest := b.GetBucket(prevB, newB)
		return dest, dest != bucket.None
	}
	feed := func(j int) (uint32, bucket.Dest) { return rebucket.IDs[j], rebucket.Vals[j] }
	return func(segID, segLast bucket.ID, ids []uint32) (int64, bool) {
		id, last = segID, segLast
		frontier := ligra.Frontier(g, ids)
		edges := frontier.OutDegreeSum(g)
		w.edges += edges
		// Relax the out-edges of the frontier (Algorithm 2, line 18).
		// The tagged output carries each improved vertex's distance at
		// the start of the round, captured by the winning relaxer.
		ligra.EdgeMapTagged(g, frontier, nil, relax, &moved)
		ligra.TagMapTagged(moved, reset, &rebucket)
		b.UpdateBuckets(rebucket.Size(), feed)
		return edges, false
	}
}

// WBFS is weighted breadth-first search: ∆-stepping with ∆ = 1
// (Theorem 4.2: O(r_src + m) expected work, O(r_src log n) depth).
func WBFS(g graph.Graph, src graph.Vertex, opt Options) Result {
	return DeltaStepping(g, src, 1, opt)
}
