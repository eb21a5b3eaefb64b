package obs

import "time"

// RoundMetrics captures one round of a bucketed (or frontier-based)
// algorithm: the per-iteration breakdown the paper's evaluation uses to
// explain where the work goes (frontier sizes in §5, bucket traffic in
// §3.4). Bucket counter fields are per-round deltas, not cumulative
// totals (bucket.Stats.Sub produces them).
type RoundMetrics struct {
	// Algo names the producing algorithm ("kcore", "sssp",
	// "setcover", ...). It prefixes the per-round trace events.
	Algo string
	// Round is the 1-based round number.
	Round int64
	// Bucket is the logical bucket id processed this round
	// (^uint32(0) when the algorithm is not bucketed).
	Bucket uint32
	// FrontierSize is the number of identifiers extracted/processed.
	FrontierSize int
	// EdgesTraversed is the number of edges relaxed/visited this round
	// (0 when the algorithm does not track it per round).
	EdgesTraversed int64
	// Extracted, Moved, Skipped are the round's bucket-structure
	// traffic deltas.
	Extracted, Moved, Skipped int64
	// Forked, Inline and Wakes are the round's fork budget: deltas of
	// parallel.ForkStats (regions that went through the helper pool,
	// regions run inline on their caller, parked helpers woken). The
	// source counters are process-wide, so a kernel running beside
	// another one sees both; RecordRound accumulates them under
	// CtrParallelForked/Inline/Wakes.
	Forked, Inline, Wakes int64
	// Duration is the round's wall-clock time.
	Duration time.Duration
}

// RoundObserver receives every recorded round synchronously, in order.
// Observers must be fast; they run on the algorithm's critical path.
type RoundObserver func(RoundMetrics)

// OnRound registers an observer for subsequent rounds.
func (r *Recorder) OnRound(fn RoundObserver) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.observers = append(r.observers, fn)
	r.mu.Unlock()
}

// RecordRound stores the metrics, emits a counter trace event (so the
// frontier size and bucket traffic plot as time series under the round
// spans in the trace viewer), feeds the latency and frontier-size
// histograms, publishes the round into the flight-recorder ring, and
// invokes registered observers.
func (r *Recorder) RecordRound(m RoundMetrics) {
	if r == nil {
		return
	}
	r.emit(TraceEvent{
		Name: m.Algo + ".round_metrics", Phase: "C",
		Ts: micros(time.Since(r.start)), Pid: 1,
		Args: map[string]any{
			"frontier":  m.FrontierSize,
			"edges":     m.EdgesTraversed,
			"extracted": m.Extracted,
			"moved":     m.Moved,
			"skipped":   m.Skipped,
			"forked":    m.Forked,
		},
	})
	if m.Forked|m.Inline|m.Wakes != 0 { // absent, not zero, for kernels that do not report it
		r.Add(CtrParallelForked, m.Forked)
		r.Add(CtrParallelInline, m.Inline)
		r.Add(CtrParallelWakes, m.Wakes)
	}
	r.Observe(HistRoundLatencyNs, m.Duration.Nanoseconds())
	r.Observe(HistRoundFrontier, int64(m.FrontierSize))
	r.mu.Lock()
	r.rounds = append(r.rounds, m)
	obs := r.observers
	algoID := r.flightAlgoIDLocked(m.Algo)
	r.mu.Unlock()
	r.recordFlight(m, algoID)
	for _, fn := range obs {
		fn(m)
	}
}

// Rounds returns a copy of the recorded per-round metrics.
func (r *Recorder) Rounds() []RoundMetrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RoundMetrics(nil), r.rounds...)
}

// NumRounds returns the number of recorded rounds.
func (r *Recorder) NumRounds() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rounds)
}
