package bucket

import (
	"context"
	"time"

	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// Loop is the round skeleton every bucketing application of the paper
// shares (Algorithms 1–3): take the next bucket, run the round's edge
// map, update buckets, repeat. A kernel supplies only the round body;
// Run owns what every round has in common — the cancel check and its
// *obs.Canceled, one extraction per round, the round count, and the
// round's time and the bucket and fork deltas each RoundMetrics
// carries — so the contract is the same for every kernel. With owns
// the structure's borrow for the run. DESIGN.md §9
// lists its invariants and the tests that pin them.
type Loop struct {
	// Algo names the kernel in its round records and cancellation
	// error.
	Algo string
	// Recorder, when non-nil, receives one RoundMetrics per round; With
	// hands it to the structure as well. Nil costs a nil check per
	// round.
	Recorder *obs.Recorder
	// Ctx, when non-nil, stops the run between rounds once it is done;
	// nil never stops it.
	Ctx context.Context
}

// With borrows a structure for one run: it fills it over identifiers
// [0, n) as New does, reporting to the loop's recorder unless opt names
// its own, runs f on it, and hands it back when f returns or panics.
// The structure comes from parallel's free list with the storage an
// earlier run grew — its slot table, arena and free list of chunks —
// so a steady-state run allocates no chunk and no arena buffer. f must
// not retain b or anything b returned, and reads b.Stats before it
// returns.
func (l Loop) With(n int, d func(uint32) ID, order Order, opt Options, f func(b *Par)) {
	if opt.Recorder == nil {
		opt.Recorder = l.Recorder
	}
	parallel.WithScratch(1, func(s []Par) {
		b := &s[0]
		defer b.drain()
		b.fill(n, d, order, opt)
		f(b)
	})
}

// Run drives b one round at a time until b is exhausted, round reports
// done, or the cancel check trips. Each round hands round the extracted
// bucket's id and identifiers, which alias b's arena and are valid only
// until round's next call into b. round returns the edges it
// traversed, recorded with the round, and whether the run is complete:
// after done, Run extracts nothing more.
//
// The cancel check runs before every extraction, never inside a round,
// so the structure is always consistent when Run stops. It returns the
// number of completed rounds and, if the run was stopped, an
// *obs.Canceled carrying that count.
func (l Loop) Run(b Structure, round func(id ID, ids []uint32) (edges int64, done bool)) (rounds int64, err error) {
	rec := l.Recorder
	var prevStats Stats
	var prevForks parallel.ForkCounts
	if rec != nil {
		// Baselines taken here charge the rounds, not the construction.
		prevStats, prevForks = b.Stats(), parallel.ForkStats()
	}
	cancel := obs.NewCancelCheck(l.Ctx)
	for {
		if cause := cancel.Stopped(); cause != nil {
			return rounds, rec.NewCanceled(l.Algo, rounds, cause)
		}
		id, ids := b.NextBucket()
		if id == Nil {
			return rounds, nil
		}
		rounds++
		begin := rec.Clock()
		edges, done := round(id, ids)
		if rec != nil {
			dur := time.Since(begin)
			cur, forks := b.Stats(), parallel.ForkStats()
			sd, fd := cur.Sub(prevStats), forks.Sub(prevForks)
			prevStats, prevForks = cur, forks
			rec.RecordRound(obs.RoundMetrics{
				Algo: l.Algo, Round: rounds, Bucket: id,
				FrontierSize: len(ids), EdgesTraversed: edges,
				Extracted: sd.Extracted, Moved: sd.Moved, Skipped: sd.Skipped,
				Duration: dur,
				Forked:   fd.Forked, Inline: fd.Inline, Wakes: fd.Wakes,
			})
		}
		if done {
			return rounds, nil
		}
	}
}
