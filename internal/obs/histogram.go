package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// This file implements the lock-free log-bucketed histogram the
// observability plane is built on (DESIGN.md §10). Design constraints:
//
//   - Record must be wait-free and allocation-free: a handful of
//     atomic adds, callable from every worker of a parallel round.
//   - Resolution must be good enough for latency quantiles: buckets
//     grow geometrically with histSub sub-buckets per power-of-two
//     octave, giving a worst-case relative error of 1/histSub = 12.5%,
//     while values below histSub*2 are recorded exactly.
//
// The bucket layout follows the HDR-histogram/DDSketch family: for a
// value v >= 2*histSub with highest set bit e (v in [2^e, 2^(e+1))),
// the octave [2^e, 2^(e+1)) is split into histSub equal sub-buckets of
// width 2^(e-histSubBits). Values in [0, 2*histSub) map one-to-one to
// the first 2*histSub buckets (width-1 "sub-buckets" of the first two
// virtual octaves), so the index formula below is continuous across
// the exact/geometric boundary.

const (
	// histSubBits is log2 of the sub-bucket count per octave.
	histSubBits = 3
	// histSub = 8 sub-buckets per octave (~12.5% relative resolution).
	histSub = 1 << histSubBits
	// numHistBuckets covers the full non-negative int64 range:
	// index(math.MaxInt64) = (63-histSubBits)*histSub + histSub - 1.
	numHistBuckets = (64 - histSubBits) * histSub
)

// histIndex maps a non-negative value to its bucket index.
func histIndex(v int64) int {
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	e := uint(bits.Len64(u) - 1)              // highest set bit; >= histSubBits+1
	mant := int(u>>(e-histSubBits)) - histSub // [0, histSub)
	return int(e-histSubBits)*histSub + mant + histSub
}

// histUpper returns the exclusive upper bound of bucket i, saturating
// at MaxInt64 for the last octave. Bucket i covers [histLower(i),
// histUpper(i)).
func histUpper(i int) int64 {
	if i < 2*histSub {
		return int64(i) + 1
	}
	block := i/histSub - 1 // 1-based octave above the exact region
	mant := uint64(i % histSub)
	e := uint(block + histSubBits)
	shift := e - histSubBits
	lo := (histSub + mant) << shift
	up := lo + 1<<shift
	if up > math.MaxInt64 || up == 0 {
		return math.MaxInt64
	}
	return int64(up)
}

// Histogram is a fixed-size, lock-free log-bucketed histogram of
// non-negative int64 values (negative samples clamp to 0). Every field
// is an atomic cell, so the struct is safe for any number of concurrent
// writers and snapshot readers. A nil *Histogram is valid and inert.
// The struct is ~4KB, so Histograms are created once per name and
// cached in the Recorder's registry.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	counts [numHistBuckets]atomic.Int64
}

// Record adds one sample. Wait-free: three atomic adds plus a CAS loop
// on the max (contended only while the max is actively rising).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.counts[histIndex(v)].Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// Snapshot returns a point-in-time copy. Concurrent Records may tear
// *between* cells (a sample's count visible before its sum), which is
// inherent to lock-free snapshots and bounded by the in-flight writer
// count; totals are never corrupted.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
		Counts: make([]int64, numHistBuckets),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram, the unit of
// merging and quantile estimation.
type HistogramSnapshot struct {
	Count  int64
	Sum    int64
	Max    int64
	Counts []int64
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// exclusive upper edge of the bucket holding the ceil(q*count)-th
// smallest sample, clamped to the observed max. Relative error is at
// most one sub-bucket width (12.5%). Returns 0 on an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			up := histUpper(i) - 1
			if s.Max > 0 && up > s.Max {
				up = s.Max
			}
			return up
		}
	}
	return s.Max
}

// Summary condenses the snapshot to the quantities reports embed.
type HistogramSummary struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Mean  int64 `json:"mean"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// Summary computes the standard p50/p90/p99/max digest.
func (s HistogramSnapshot) Summary() HistogramSummary {
	sum := HistogramSummary{Count: s.Count, Sum: s.Sum, Max: s.Max}
	if s.Count > 0 {
		sum.Mean = s.Sum / s.Count
		sum.P50 = s.Quantile(0.50)
		sum.P90 = s.Quantile(0.90)
		sum.P99 = s.Quantile(0.99)
	}
	return sum
}

// --- Recorder integration ----------------------------------------------------

// histogram returns the named histogram, creating it on first use
// (nil on a nil recorder — every *Histogram method is nil-safe, so
// callers chain unconditionally).
func (r *Recorder) histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, new(Histogram))
	return v.(*Histogram)
}

// Observe records one sample into the histogram.
func (r *Recorder) Observe(h Hist, v int64) { r.histogram(h.name).Record(v) }

// ObserveDuration records d (in nanoseconds) into the histogram.
func (r *Recorder) ObserveDuration(h Hist, d time.Duration) {
	r.histogram(h.name).RecordDuration(d)
}

// Clock returns the current time on a live recorder and the zero time
// on a nil one — the start-half of the ObserveSince pair. Instrumented
// packages outside internal/obs and internal/harness are barred from
// calling time.Now directly (the root package's TestNoRandTime), and
// routing the reads through the recorder also makes them free when
// telemetry is off.
func (r *Recorder) Clock() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the nanoseconds elapsed since start (a value
// returned by Clock) into the histogram. No-op on a nil recorder or a
// zero start.
func (r *Recorder) ObserveSince(h Hist, start time.Time) {
	if r == nil || start.IsZero() {
		return
	}
	r.Observe(h, time.Since(start).Nanoseconds())
}

// HistSummary returns the named histogram's digest (zero if absent).
func (r *Recorder) HistSummary(name string) HistogramSummary {
	if r == nil {
		return HistogramSummary{}
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram).Snapshot().Summary()
	}
	return HistogramSummary{}
}

// Histograms returns a point-in-time snapshot of every histogram.
func (r *Recorder) Histograms() map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	out := make(map[string]HistogramSnapshot)
	r.hists.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	return out
}

// HistogramNames returns the histogram names in sorted order.
func (r *Recorder) HistogramNames() []string {
	if r == nil {
		return nil
	}
	var names []string
	r.hists.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// Gauges returns a point-in-time snapshot of all gauges.
func (r *Recorder) Gauges() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64)
	r.gauges.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}
