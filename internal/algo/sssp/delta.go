package sssp

import (
	"context"
	"math/bits"

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
}

// waves is the state DeltaStepping shares with its round body.
type waves struct {
	relaxations int64
	edges       int64
	// udelta is ∆; when ∆ is a power of two, shift is log2(∆) and
	// pow2 is set, so bktOf shifts instead of dividing.
	udelta uint64
	shift  uint8
	pow2   bool
	g      graph.Graph
	// sp holds the tentative distances, one per vertex, and becomes the
	// run's answer; ligra.RoundFlag marks a vertex whose distance
	// changed in the current round.
	sp []int64
	b  *bucket.Par
}

// dests are a run's two round destinations, borrowed for the run with
// the capacity an earlier run grew them to; each call into one starts
// it empty.
type dests struct {
	moved    ligra.Tagged[uint64]
	rebucket ligra.Tagged[bucket.Dest]
}

// setDelta sets ∆ and the shift that stands in for dividing by it.
func (w *waves) setDelta(delta int64) {
	w.udelta = uint64(delta)
	w.pow2 = w.udelta&(w.udelta-1) == 0
	w.shift = uint8(bits.TrailingZeros64(w.udelta))
}

// bktOf is GetBucketNum of Algorithm 2 (line 3): bucket i is the
// annulus of tentative distances [i∆, (i+1)∆).
func (w *waves) bktOf(dist uint64) bucket.ID {
	if dist >= inf {
		return bucket.Nil
	}
	var b uint64
	if w.pow2 {
		b = dist >> w.shift
	} else {
		b = dist / w.udelta
	}
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
func DeltaStepping(g graph.Graph, src graph.Vertex, delta int64, opt Options) Result {
	checkInput(g, src)
	if delta <= 0 {
		panic("sssp: delta must be positive")
	}
	n := g.NumVertices()
	w := &waves{g: g, sp: make([]int64, n)}
	w.setDelta(delta)
	parallel.For(n, parallel.DefaultGrain, func(i int) { w.sp[i] = int64(inf) })
	w.sp[src] = 0
	lp := bucket.Loop{Algo: "sssp", Recorder: opt.Recorder, Ctx: opt.Ctx}
	bkt := func(i uint32) bucket.ID { return w.bktOf(uint64(w.sp[i]) &^ ligra.RoundFlag) }
	var res Result
	parallel.WithScratch(1, func(ds []dests) {
		lp.With(n, bkt, bucket.Increasing, opt.Buckets, func(b *bucket.Par) {
			w.b = b
			res.Rounds, res.Err = lp.Run(b, deltaRound(w, &ds[0]))
			res.BucketStats = b.Stats()
		})
	})
	res.Relaxations = w.relaxations
	res.EdgesTraversed = w.edges
	res.Dist = finalize(w.sp)
	return res
}

// deltaRound builds Algorithm 2's round over the initialized run: one
// relaxation round over the frontier ids drawn from bucket id,
// rebucketing what moved. ids aliases the bucket structure's arena:
// valid only until the body's next call into the structure.
func deltaRound(w *waves, ds *dests) func(id bucket.ID, ids []uint32) (int64, bool) {
	g, sp, b := w.g, w.sp, w.b
	moved, rebucket := &ds.moved, &ds.rebucket
	// The round's closures are built once per run and its destinations
	// borrowed for it; a round reads its bucket from id and allocates
	// nothing.
	var id bucket.ID
	// Reset (lines 11–13): clear the round flag and compute each
	// vertex's bucket move from its start-of-round bucket to its new
	// bucket.
	reset := func(v graph.Vertex, oldDist uint64) (bucket.Dest, bool) {
		newDist := uint64(sp[v]) &^ ligra.RoundFlag
		sp[v] = int64(newDist)
		prevB, newB := w.bktOf(oldDist), w.bktOf(newDist)
		if newB == prevB && newB == id {
			// v sat in the current bucket and was improved to a
			// distance still inside it. The extraction consumed its
			// physical copy, so "no logical move" must still reinsert
			// it (the light-edge iteration of ∆-stepping); prev = Nil
			// states the physical truth.
			prevB = bucket.Nil
		}
		dest := b.GetBucket(prevB, newB)
		return dest, dest != bucket.None
	}
	feed := func(j int) (uint32, bucket.Dest) { return rebucket.IDs[j], rebucket.Vals[j] }
	return func(roundID bucket.ID, ids []uint32) (int64, bool) {
		id = roundID
		frontier := ligra.Frontier(g, ids)
		edges := frontier.OutDegreeSum(g)
		w.edges += edges
		// Relax the out-edges of the frontier (Algorithm 2, line 18).
		// The tagged output carries each improved vertex's distance at
		// the start of the round, captured by the winning relaxer.
		_, relaxed := ligra.EdgeMapWriteMin(g, frontier, sp, moved)
		w.relaxations += relaxed
		ligra.TagMapTagged(*moved, reset, rebucket)
		b.UpdateBuckets(rebucket.Size(), feed)
		return edges, false
	}
}

// WBFS is weighted breadth-first search: ∆-stepping with ∆ = 1
// (Theorem 4.2: O(r_src + m) expected work, O(r_src log n) depth).
func WBFS(g graph.Graph, src graph.Vertex, opt Options) Result {
	return DeltaStepping(g, src, 1, opt)
}
