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
// *obs.Canceled, fused or unfused extraction with the DrainLazy loop,
// the round count, and the round's time and the bucket and fork deltas
// each RoundMetrics carries — so the contract is the same for every
// kernel. DESIGN.md §9 lists its invariants and the tests that
// pin them.
type Loop struct {
	// Algo names the kernel in its round records and cancellation
	// error.
	Algo string
	// Recorder, when non-nil, receives one RoundMetrics per round; New
	// hands it to the structure as well. Nil costs a nil check per
	// round.
	Recorder *obs.Recorder
	// Ctx and Deadline, when set, stop the run between rounds (composed
	// by obs.NewCancelCheck); the zero values never stop it.
	Ctx      context.Context
	Deadline time.Time
	// Fusion selects NextBucketFused and the same-wave DrainLazy loop
	// (DESIGN.md §11); the zero value extracts one bucket per round.
	Fusion Fusion
}

// New is bucket.New for the loop's run: the structure reports to the
// loop's recorder unless opt names its own.
func (l Loop) New(n int, d func(uint32) ID, order Order, opt Options) *Par {
	if opt.Recorder == nil {
		opt.Recorder = l.Recorder
	}
	return New(n, d, order, opt)
}

// Run drives b one round at a time until b is exhausted, round reports
// done, or the cancel check trips. Each round hands round the extracted
// bucket range [first, last] (first == last unless fused) and its
// identifiers, which alias b's arena and are valid only until round's
// next call into b. round returns the edges it traversed, recorded
// with the round, and whether the run is complete: after done, Run
// extracts nothing more.
//
// The cancel check runs before every extraction and before every
// drained segment of a fused wave, never inside a round, so the
// structure is always consistent when Run stops. It returns the number
// of completed rounds and, if the run was stopped, an *obs.Canceled
// carrying that count.
func (l Loop) Run(b Structure, round func(first, last ID, ids []uint32) (edges int64, done bool)) (rounds int64, err error) {
	rec, fus := l.Recorder, l.Fusion
	var prevStats Stats
	var prevForks parallel.ForkCounts
	if rec != nil {
		// Baselines taken here charge the rounds, not the construction.
		prevStats, prevForks = b.Stats(), parallel.ForkStats()
	}
	cancel := obs.NewCancelCheck(l.Ctx, l.Deadline)
	var first, last ID
	var ids []uint32 // non-empty between rounds only for a drained segment
	for {
		if cause := cancel.Stopped(); cause != nil {
			return rounds, rec.NewCanceled(l.Algo, rounds, cause)
		}
		if len(ids) == 0 {
			if fus.Enabled() {
				first, last, ids = b.NextBucketFused(fus.MaxFrontier, fus.MaxSpan)
			} else {
				first, ids = b.NextBucket()
				last = first
			}
			if first == Nil {
				return rounds, nil
			}
		}
		rounds++
		begin := rec.Clock()
		edges, done := round(first, last, ids)
		if rec != nil {
			dur := time.Since(begin)
			cur, forks := b.Stats(), parallel.ForkStats()
			sd, fd := cur.Sub(prevStats), forks.Sub(prevForks)
			prevStats, prevForks = cur, forks
			rec.RecordRound(obs.RoundMetrics{
				Algo: l.Algo, Round: rounds, Bucket: first,
				FrontierSize: len(ids), EdgesTraversed: edges,
				Extracted: sd.Extracted, Moved: sd.Moved, Skipped: sd.Skipped,
				Duration: dur,
				Forked:   fd.Forked, Inline: fd.Inline, Wakes: fd.Wakes,
			})
		}
		if done {
			return rounds, nil
		}
		// Same-wave processing of a fused span: what the round relaxed
		// back into [first, last] comes back as the next segment instead
		// of waiting for another extraction. A plain NextBucket opens no
		// span, so an unfused wave is always one segment.
		ids = nil
		if fus.Enabled() {
			ids = b.DrainLazy()
		}
	}
}
