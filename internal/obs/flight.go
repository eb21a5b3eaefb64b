package obs

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// This file implements the flight ring (DESIGN.md §5, §10): the
// recorder's one per-round store, a fixed ring of the most recent
// round records. RecordRound writes a round with a handful of atomic
// stores; Rounds, the trace's per-round events, -stats, /debug/obs and
// the post-mortem dumps on panic, cancellation and chaos-harness
// failure are all views of it. Its memory is fixed (≈0.5 MB per
// recorder), so a long-running server keeps it armed permanently: when
// the ring wraps, the oldest rounds are overwritten.
//
// Concurrency: writers claim a slot with one atomic ticket increment,
// then publish fields with atomic stores bracketed by a seqlock-style
// sequence word (negative while the write is in flight, the ticket
// value once published). Readers re-check the sequence after reading
// the payload and discard torn slots. Every slot field is an
// atomic.Int64, so the scheme is exact under the race detector, not
// merely "benign".

// flightSlots is the ring capacity. Power of two so the slot index is
// a mask; 4,096 rounds hold every run the in-tree tests read whole.
const flightSlots = 4096

// flightTailDefault is how many trailing records automatic dumps
// (cancellation errors, CLI panic handlers, chaos failures) include.
const flightTailDefault = 16

// flightSlot is one published round record.
type flightSlot struct {
	seq      atomic.Int64           // ticket once published, -ticket while being written
	ts       atomic.Int64           // nanoseconds since recorder start, at the round's end
	algo     atomic.Pointer[string] // interned in Recorder.algos
	round    atomic.Int64
	bucket   atomic.Int64
	frontier atomic.Int64
	edges    atomic.Int64
	ext      atomic.Int64 // extracted
	moved    atomic.Int64
	skipped  atomic.Int64
	forked   atomic.Int64
	inline   atomic.Int64
	wakes    atomic.Int64
	dur      atomic.Int64 // round duration, nanoseconds
	allocs   atomic.Int64 // heap objects allocated since the previous record
}

// flightRing is the ring buffer plus its cursors.
type flightRing struct {
	cursor     atomic.Int64 // total records ever written (next ticket = cursor+1)
	lastAllocs atomic.Int64 // previous /gc/heap/allocs:objects sample
	slots      [flightSlots]flightSlot
}

// FlightRecord is one decoded ring entry, ordered by Seq (a 1-based,
// monotonically increasing write ticket).
type FlightRecord struct {
	Seq int64         `json:"seq"`
	T   time.Duration `json:"t_ns"` // offset from recorder start, at the round's end
	RoundMetrics
	Allocs int64 `json:"allocs"`
}

// heapAllocsSample reads the cumulative heap-object allocation count.
// One small allocation per call; it runs only on the instrumented
// (recorder-on) path, never in the zero-cost disabled path.
func heapAllocsSample() int64 {
	s := make([]metrics.Sample, 1)
	s[0].Name = "/gc/heap/allocs:objects"
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// algoName interns an algorithm name, so a slot can hold it in one
// atomic pointer; only a name not seen before allocates.
func (r *Recorder) algoName(name string) *string {
	if p, ok := r.algos.Load(name); ok {
		return p.(*string)
	}
	interned := name
	p, _ := r.algos.LoadOrStore(name, &interned)
	return p.(*string)
}

// recordFlight publishes one round into the ring.
func (r *Recorder) recordFlight(m RoundMetrics) {
	f := r.flight
	ticket := f.cursor.Add(1)
	allocs := heapAllocsSample()
	prev := f.lastAllocs.Swap(allocs)
	delta := allocs - prev
	if prev == 0 || delta < 0 {
		delta = 0 // first record, or interleaved swaps under contention
	}
	s := &f.slots[(ticket-1)&(flightSlots-1)]
	s.seq.Store(-ticket)
	s.ts.Store(int64(time.Since(r.start)))
	s.algo.Store(r.algoName(m.Algo))
	s.round.Store(m.Round)
	s.bucket.Store(int64(m.Bucket))
	s.frontier.Store(int64(m.FrontierSize))
	s.edges.Store(m.EdgesTraversed)
	s.ext.Store(m.Extracted)
	s.moved.Store(m.Moved)
	s.skipped.Store(m.Skipped)
	s.forked.Store(m.Forked)
	s.inline.Store(m.Inline)
	s.wakes.Store(m.Wakes)
	s.dur.Store(m.Duration.Nanoseconds())
	s.allocs.Store(delta)
	s.seq.Store(ticket)
}

// FlightTail returns up to n of the most recent ring records in write
// order (oldest first). Slots overwritten mid-read are skipped, so the
// result may be shorter than n even when more rounds were recorded.
// Safe to call concurrently with writers, and from panic handlers.
func (r *Recorder) FlightTail(n int) []FlightRecord {
	if r == nil || n <= 0 {
		return nil
	}
	f := r.flight
	newest := f.cursor.Load()
	if newest == 0 {
		return nil
	}
	n = int(min(int64(n), newest, flightSlots))
	out := make([]FlightRecord, 0, n)
	for ticket := newest - int64(n) + 1; ticket <= newest; ticket++ {
		s := &f.slots[(ticket-1)&(flightSlots-1)]
		if s.seq.Load() != ticket {
			continue // not yet published, or already overwritten
		}
		rec := FlightRecord{
			Seq: ticket,
			T:   time.Duration(s.ts.Load()),
			RoundMetrics: RoundMetrics{
				Round:          s.round.Load(),
				Bucket:         uint32(s.bucket.Load()),
				FrontierSize:   int(s.frontier.Load()),
				EdgesTraversed: s.edges.Load(),
				Extracted:      s.ext.Load(),
				Moved:          s.moved.Load(),
				Skipped:        s.skipped.Load(),
				Forked:         s.forked.Load(),
				Inline:         s.inline.Load(),
				Wakes:          s.wakes.Load(),
				Duration:       time.Duration(s.dur.Load()),
			},
			Allocs: s.allocs.Load(),
		}
		algo := s.algo.Load()
		if s.seq.Load() != ticket {
			continue // torn read: slot was reclaimed while decoding
		}
		rec.Algo = *algo
		out = append(out, rec)
	}
	return out
}

// roundEvents renders the retained rounds as trace events: per round,
// one "<algo>.round" complete span with its bucket (when bucketed) and
// frontier, and one "<algo>.round_metrics" counter sample, so the
// frontier size and bucket traffic plot as time series under the
// spans in the trace viewer.
func (r *Recorder) roundEvents() []TraceEvent {
	recs := r.FlightTail(flightSlots)
	evs := make([]TraceEvent, 0, 2*len(recs))
	for _, rec := range recs {
		args := map[string]any{"frontier": int64(rec.FrontierSize)}
		if rec.Bucket != ^uint32(0) {
			args["bucket"] = int64(rec.Bucket)
		}
		evs = append(evs, TraceEvent{
			Name: rec.Algo + ".round", Phase: "X",
			Ts: micros(rec.T - rec.Duration), Dur: micros(rec.Duration),
			Pid: 1, Tid: 1, Args: args,
		}, TraceEvent{
			Name: rec.Algo + ".round_metrics", Phase: "C",
			Ts: micros(rec.T), Pid: 1,
			Args: map[string]any{
				"frontier":  int64(rec.FrontierSize),
				"edges":     rec.EdgesTraversed,
				"extracted": rec.Extracted,
				"moved":     rec.Moved,
				"skipped":   rec.Skipped,
				"forked":    rec.Forked,
			},
		})
	}
	return evs
}

// WriteFlightText renders records as an aligned plain-text table, the
// format panic and cancellation dumps use. Safe with an empty slice.
func WriteFlightText(w io.Writer, recs []FlightRecord) {
	if len(recs) == 0 {
		fmt.Fprintln(w, "flight recorder: no rounds recorded")
		return
	}
	fmt.Fprintf(w, "flight recorder (last %d rounds):\n", len(recs))
	fmt.Fprintf(w, "  %6s %-10s %6s %7s %9s %10s %9s %9s %9s %12s %8s\n",
		"seq", "algo", "round", "bucket", "frontier", "edges", "extracted", "moved", "skipped", "duration", "allocs")
	for _, rec := range recs {
		bucket := "-"
		if rec.Bucket != ^uint32(0) {
			bucket = fmt.Sprintf("%d", rec.Bucket)
		}
		fmt.Fprintf(w, "  %6d %-10s %6d %7s %9d %10d %9d %9d %9d %12v %8d\n",
			rec.Seq, rec.Algo, rec.Round, bucket, rec.FrontierSize, rec.EdgesTraversed,
			rec.Extracted, rec.Moved, rec.Skipped, rec.Duration, rec.Allocs)
	}
}
