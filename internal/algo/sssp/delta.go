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
	// Recorder, when non-nil, receives one span and one RoundMetrics
	// per ∆-stepping round plus the bucket structure's counters. Nil
	// disables telemetry with only nil-check overhead.
	Recorder *obs.Recorder
	// Ctx, when non-nil, is checked once per bucket round; if it is
	// done the run stops and Result.Err reports a *obs.Canceled with
	// partial progress. Nil keeps today's zero-overhead behavior.
	Ctx context.Context
	// Deadline, when non-zero, stops the run once it passes (checked
	// once per round, composing with Ctx — whichever trips first).
	Deadline time.Time
	// Fusion enables fused bucket extraction (NextBucketFused, DESIGN.md
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

// waves is the state the ∆-stepping wave driver (DeltaStepping) shares
// with its per-segment body.
type waves struct {
	// res comes first so its counters, which the relax loops update
	// with sync/atomic, stay 8-aligned under 32-bit layout.
	res       Result
	prevStats bucket.Stats
	prevForks parallel.ForkCounts
	prevRelax int64
	udelta    uint64
	g         graph.Graph
	// sp holds the tentative distances, one per vertex; the flag bit
	// marks a vertex whose distance changed in the current round.
	sp  []uint64
	b   *bucket.Par
	rec *obs.Recorder
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

// startRound opens one relaxation round over a frontier of the given
// size drawn from bucket id.
func (w *waves) startRound(id bucket.ID, frontier int) *obs.Span {
	w.res.Rounds++
	return w.rec.StartSpan("sssp.round").ArgInt("bucket", int64(id)).ArgInt("frontier", int64(frontier))
}

// endRound closes the round startRound opened and records its metrics,
// attributing the bucket traffic since the previous round to it.
func (w *waves) endRound(sp *obs.Span, id bucket.ID, frontier int, edges int64) {
	// The round's workers have joined, but the counters are atomic
	// cells: touch them atomically so the happens-before edge is explicit.
	atomic.AddInt64(&w.res.EdgesTraversed, edges)
	relax := atomic.LoadInt64(&w.res.Relaxations)
	dur := sp.ArgInt("relaxations", relax-w.prevRelax).End()
	if w.rec == nil {
		return
	}
	cur := w.b.Stats()
	sd := cur.Sub(w.prevStats)
	w.prevStats = cur
	w.prevRelax = relax
	forks := parallel.ForkStats()
	fd := forks.Sub(w.prevForks)
	w.prevForks = forks
	w.rec.RecordRound(obs.RoundMetrics{
		Algo: "sssp", Round: w.res.Rounds, Bucket: id,
		FrontierSize: frontier, EdgesTraversed: edges,
		Dense:     false, // EdgeMapTagged is push-only
		Extracted: sd.Extracted, Moved: sd.Moved,
		Skipped: sd.Skipped, Duration: dur,
		Forked: fd.Forked, Inline: fd.Inline, Wakes: fd.Wakes,
	})
}

// DeltaStepping implements Algorithm 2 of the paper: bucketed
// ∆-stepping where bucket i is the annulus of tentative distances
// [i∆, (i+1)∆). Unreached vertices are outside the structure (their D
// is Nil) and enter it on first relaxation, so the work is proportional
// to edges relaxed, not to n per round.
//
// It is the wave driver WBFS runs on too. Each wave extracts the next
// bucket — or, with opt.Fusion enabled, the next fused bucket range
// [id, last] — and hands the frontier to the segment body. Vertices
// relaxed back into a fused span return in the same wave as further
// segments via DrainLazy; without fusion last == id, no span opens,
// DrainLazy returns nil, and every wave is exactly one segment.
func DeltaStepping(g graph.Graph, src graph.Vertex, delta int64, opt Options) Result {
	checkInput(g, src)
	if delta <= 0 {
		panic("sssp: delta must be positive")
	}
	n := g.NumVertices()
	w := &waves{g: g, udelta: uint64(delta), sp: make([]uint64, n), rec: opt.Recorder}
	parallel.For(n, parallel.DefaultGrain, func(i int) { w.sp[i] = inf })
	w.sp[src] = 0
	bopt := opt.Buckets
	if bopt.Recorder == nil {
		bopt.Recorder = w.rec
	}
	w.b = bucket.New(n, func(i uint32) bucket.ID { return w.bktOf(w.sp[i] &^ flag) },
		bucket.Increasing, bopt)
	segment := deltaSegment(w)
	w.prevForks = parallel.ForkStats() // the rounds' budget, not the construction's

	fus := opt.Fusion
	cancel := obs.NewCancelCheck(opt.Ctx, opt.Deadline)
	stopped := func() bool {
		cause := cancel.Stopped()
		if cause != nil {
			w.res.Err = w.rec.NewCanceled("sssp", w.res.Rounds, cause)
		}
		return cause != nil
	}
run:
	for !stopped() {
		var id, last bucket.ID
		var ids []uint32
		if fus.Enabled() {
			id, last, ids = w.b.NextBucketFused(fus.MaxFrontier, fus.MaxSpan)
		} else {
			id, ids = w.b.NextBucket()
			last = id
		}
		if id == bucket.Nil {
			break
		}
		for len(ids) > 0 {
			segment(id, last, ids)
			// Same-wave processing of the fused span: everything relaxed
			// into [id, last] comes back immediately instead of waiting
			// for another synchronization round.
			ids = w.b.DrainLazy()
			if len(ids) > 0 && stopped() {
				break run
			}
		}
	}
	w.res.BucketStats = w.b.Stats()
	w.res.Dist = finalize(w.sp)
	return w.res
}

// deltaSegment builds Algorithm 2's round over the initialized run:
// one segment is one relaxation round over the frontier ids drawn from
// the bucket range [id, last], rebucketing what moved. ids aliases the
// bucket structure's arena: valid only until the body's next call into
// the structure.
//
// Not inlined into the driver on purpose: in the copy the inliner makes
// of the relax literal, relaxCapture is an out-of-line call on the
// per-edge path.
//
//go:noinline
func deltaSegment(w *waves) func(id, last bucket.ID, ids []uint32) {
	// res is taken once, here: &w.res inside relax would nil-check w by
	// loading its first word on every call, and that word shares a cache
	// line with the Relaxations counter every worker is adding to
	// (measured: +28% on the RMAT ∆-stepping run at P=2).
	g, sp, b, res := w.g, w.sp, w.b, &w.res
	relax := func(s, dst graph.Vertex, wt graph.Weight) (uint64, bool) {
		return relaxCapture(sp, res, s, dst, wt)
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
	return func(segID, segLast bucket.ID, ids []uint32) {
		id, last = segID, segLast
		span := w.startRound(id, len(ids))
		frontier := ligra.Frontier(g, ids)
		edges := frontier.OutDegreeSum(g)
		// Relax the out-edges of the frontier (Algorithm 2, line 18).
		// The tagged output carries each improved vertex's distance at
		// the start of the round, captured by the winning relaxer.
		ligra.EdgeMapTagged(g, frontier, nil, relax, &moved)
		ligra.TagMapTagged(moved, reset, &rebucket)
		b.UpdateBuckets(rebucket.Size(), feed)
		w.endRound(span, id, len(ids), edges)
	}
}

// WBFS is weighted breadth-first search: ∆-stepping with ∆ = 1
// (Theorem 4.2: O(r_src + m) expected work, O(r_src log n) depth).
func WBFS(g graph.Graph, src graph.Vertex, opt Options) Result {
	return DeltaStepping(g, src, 1, opt)
}
