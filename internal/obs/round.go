package obs

import (
	"slices"
	"time"
)

// RoundMetrics captures one round of a bucketed (or frontier-based)
// algorithm: the per-iteration breakdown the paper's evaluation uses to
// explain where the work goes (frontier sizes in §5, bucket traffic in
// §3.4). Bucket counter fields are per-round deltas, not cumulative
// totals (bucket.Stats.Sub produces them). The JSON keys are the ones
// /debug/obs prints for each flight record.
type RoundMetrics struct {
	// Algo names the producing algorithm ("kcore", "sssp",
	// "setcover", ...). It prefixes the per-round trace events.
	Algo string `json:"algo"`
	// Round is the 1-based round number.
	Round int64 `json:"round"`
	// Bucket is the logical bucket id processed this round.
	Bucket uint32 `json:"bucket"`
	// FrontierSize is the number of identifiers extracted/processed.
	FrontierSize int `json:"frontier"`
	// EdgesTraversed is the number of edges relaxed/visited this round
	// (0 when the algorithm does not track it per round).
	EdgesTraversed int64 `json:"edges"`
	// Extracted, Moved, Skipped are the round's bucket-structure
	// traffic deltas.
	Extracted int64 `json:"extracted"`
	Moved     int64 `json:"moved"`
	Skipped   int64 `json:"skipped"`
	// Forked, Inline and Wakes are the round's fork budget: deltas of
	// parallel.ForkStats (regions that went through the helper pool,
	// regions run inline on their caller, parked helpers woken). The
	// source counters are process-wide, so a kernel running beside
	// another one sees both; RecordRound accumulates them under
	// CtrParallelForked/Inline/Wakes.
	Forked int64 `json:"forked"`
	Inline int64 `json:"inline"`
	Wakes  int64 `json:"wakes"`
	// Duration is the round's wall-clock time.
	Duration time.Duration `json:"duration_ns"`
}

// RoundObserver receives every recorded round synchronously, in order.
// Observers must be fast; they run on the algorithm's critical path.
type RoundObserver func(RoundMetrics)

// OnRound registers an observer for subsequent rounds. The observer
// list is copy-on-write, so RecordRound reads it without a lock.
func (r *Recorder) OnRound(fn RoundObserver) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var obs []RoundObserver
	if p := r.observers.Load(); p != nil {
		obs = *p
	}
	obs = append(slices.Clip(obs), fn)
	r.observers.Store(&obs)
}

// RecordRound publishes the round into the flight ring — the round
// log every per-round view reads (flight.go) — feeds the latency and
// frontier-size histograms and the fork-budget counters, and invokes
// registered observers. It takes no lock and allocates no map once the
// round's algo name has been seen.
func (r *Recorder) RecordRound(m RoundMetrics) {
	if r == nil {
		return
	}
	// Every round reports its fork budget, and a round below the fork
	// cut-off may open no region at all: zero is a value, not absence.
	r.Add(CtrParallelForked, m.Forked)
	r.Add(CtrParallelInline, m.Inline)
	r.Add(CtrParallelWakes, m.Wakes)
	r.Observe(HistRoundLatencyNs, m.Duration.Nanoseconds())
	r.Observe(HistRoundFrontier, int64(m.FrontierSize))
	r.recordFlight(m)
	if p := r.observers.Load(); p != nil {
		for _, fn := range *p {
			fn(m)
		}
	}
}

// Rounds returns the rounds the flight ring retains, oldest first:
// every round of a run that fits the ring, the last flightSlots
// otherwise.
func (r *Recorder) Rounds() []RoundMetrics {
	if r == nil {
		return nil
	}
	recs := r.FlightTail(flightSlots)
	out := make([]RoundMetrics, len(recs))
	for i, rec := range recs {
		out[i] = rec.RoundMetrics
	}
	return out
}

// NumRounds returns the number of rounds ever recorded, retained or
// not: the ring's cursor.
func (r *Recorder) NumRounds() int {
	if r == nil {
		return 0
	}
	return int(r.flight.cursor.Load())
}
