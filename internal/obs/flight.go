package obs

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// This file implements the always-on flight recorder (DESIGN.md §10):
// a fixed-size ring of the most recent per-round records, written with
// a handful of atomic stores per round and read back for post-mortem
// dumps on panic, cancellation, and chaos-harness failure. Unlike the
// rounds slice (which grows without bound and is meant for -stats and
// trace output), the ring's memory is a fixed ~18KB per recorder, so
// long-running servers keep it armed permanently.
//
// Concurrency: writers claim a slot with one atomic ticket increment,
// then publish fields with atomic stores bracketed by a seqlock-style
// sequence word (negative while the write is in flight, the ticket
// value once published). Readers re-check the sequence after reading
// the payload and discard torn slots. Every slot field is an
// atomic.Int64, so the scheme is exact under the race detector, not
// merely "benign".

// flightSlots is the ring capacity. Power of two so the slot index is
// a mask; 256 rounds of history is bigger than the peeling depth of
// most failures while keeping the ring under 20KB.
const flightSlots = 256

// flightTailDefault is how many trailing records automatic dumps
// (cancellation errors, CLI panic handlers, chaos failures) include.
const flightTailDefault = 16

// flightSlot is one published round record.
type flightSlot struct {
	seq      atomic.Int64 // ticket once published, -ticket while being written
	ts       atomic.Int64 // nanoseconds since recorder start
	algo     atomic.Int64 // index into Recorder.flightAlgos
	round    atomic.Int64
	bucket   atomic.Int64 // logical bucket id; -1 when not bucketed
	frontier atomic.Int64
	edges    atomic.Int64
	ext      atomic.Int64 // extracted
	moved    atomic.Int64
	skipped  atomic.Int64
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
	Seq          int64         `json:"seq"`
	T            time.Duration `json:"t_ns"` // offset from recorder start
	Algo         string        `json:"algo"`
	Round        int64         `json:"round"`
	Bucket       int64         `json:"bucket"` // -1 when not bucketed
	FrontierSize int64         `json:"frontier"`
	Edges        int64         `json:"edges"`
	Extracted    int64         `json:"extracted"`
	Moved        int64         `json:"moved"`
	Skipped      int64         `json:"skipped"`
	Duration     time.Duration `json:"duration_ns"`
	Allocs       int64         `json:"allocs"`
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

// flightAlgoID interns an algorithm name, returning its table index.
// Called with r.mu held.
func (r *Recorder) flightAlgoIDLocked(name string) int64 {
	for i, n := range r.flightAlgos {
		if n == name {
			return int64(i)
		}
	}
	r.flightAlgos = append(r.flightAlgos, name)
	return int64(len(r.flightAlgos) - 1)
}

// recordFlight publishes one round into the ring.
func (r *Recorder) recordFlight(m RoundMetrics, algoID int64) {
	f := r.flight
	ticket := f.cursor.Add(1)
	allocs := heapAllocsSample()
	prev := f.lastAllocs.Swap(allocs)
	delta := allocs - prev
	if prev == 0 || delta < 0 {
		delta = 0 // first record, or interleaved swaps under contention
	}
	bucket := int64(m.Bucket)
	if m.Bucket == ^uint32(0) {
		bucket = -1
	}
	s := &f.slots[(ticket-1)&(flightSlots-1)]
	s.seq.Store(-ticket)
	s.ts.Store(int64(time.Since(r.start)))
	s.algo.Store(algoID)
	s.round.Store(m.Round)
	s.bucket.Store(bucket)
	s.frontier.Store(int64(m.FrontierSize))
	s.edges.Store(m.EdgesTraversed)
	s.ext.Store(m.Extracted)
	s.moved.Store(m.Moved)
	s.skipped.Store(m.Skipped)
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
	if int64(n) > newest {
		n = int(newest)
	}
	if n > flightSlots {
		n = flightSlots
	}
	r.mu.Lock()
	algos := append([]string(nil), r.flightAlgos...)
	r.mu.Unlock()
	out := make([]FlightRecord, 0, n)
	for ticket := newest - int64(n) + 1; ticket <= newest; ticket++ {
		s := &f.slots[(ticket-1)&(flightSlots-1)]
		if s.seq.Load() != ticket {
			continue // not yet published, or already overwritten
		}
		rec := FlightRecord{
			Seq:          ticket,
			T:            time.Duration(s.ts.Load()),
			Round:        s.round.Load(),
			Bucket:       s.bucket.Load(),
			FrontierSize: s.frontier.Load(),
			Edges:        s.edges.Load(),
			Extracted:    s.ext.Load(),
			Moved:        s.moved.Load(),
			Skipped:      s.skipped.Load(),
			Duration:     time.Duration(s.dur.Load()),
			Allocs:       s.allocs.Load(),
		}
		id := s.algo.Load()
		if s.seq.Load() != ticket {
			continue // torn read: slot was reclaimed while decoding
		}
		if id >= 0 && id < int64(len(algos)) {
			rec.Algo = algos[id]
		}
		out = append(out, rec)
	}
	return out
}

// FlightLen returns the total number of rounds ever written to the
// ring (not capped at the ring size).
func (r *Recorder) FlightLen() int64 {
	if r == nil {
		return 0
	}
	return r.flight.cursor.Load()
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
		if rec.Bucket >= 0 {
			bucket = fmt.Sprintf("%d", rec.Bucket)
		}
		fmt.Fprintf(w, "  %6d %-10s %6d %7s %9d %10d %9d %9d %9d %12v %8d\n",
			rec.Seq, rec.Algo, rec.Round, bucket, rec.FrontierSize, rec.Edges,
			rec.Extracted, rec.Moved, rec.Skipped, rec.Duration, rec.Allocs)
	}
}
