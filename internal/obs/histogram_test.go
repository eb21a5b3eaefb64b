package obs

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestHistIndexLayout pins the bucket layout: exact buckets below
// 2*histSub, continuity across the exact/geometric boundary, and that
// every value lands in the bucket whose [lower, upper) range holds it.
func TestHistIndexLayout(t *testing.T) {
	for v := int64(0); v < 2*histSub; v++ {
		if got := histIndex(v); got != int(v) {
			t.Fatalf("histIndex(%d) = %d, want exact bucket %d", v, got, v)
		}
		if up := histUpper(int(v)); up != v+1 {
			t.Fatalf("histUpper(%d) = %d, want %d", v, up, v+1)
		}
	}
	// Indices must be monotone and every value inside its bucket range.
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 15, 16, 17, 31, 32, 100, 1000, 1 << 20,
		1<<40 + 12345, math.MaxInt64 / 2, math.MaxInt64} {
		i := histIndex(v)
		if i < prev {
			t.Fatalf("histIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		if i >= numHistBuckets {
			t.Fatalf("histIndex(%d) = %d out of range %d", v, i, numHistBuckets)
		}
		// The top bucket's bound saturates at MaxInt64 (inclusive there).
		if up := histUpper(i); v >= up && up != math.MaxInt64 {
			t.Fatalf("value %d >= upper bound %d of its bucket %d", v, up, i)
		}
		if i > 0 {
			if lo := histUpper(i - 1); v < lo {
				t.Fatalf("value %d < lower bound %d of its bucket %d", v, lo, i)
			}
		}
	}
	// Adjacent buckets must tile: upper(i) is lower(i+1) by construction,
	// i.e. histIndex(histUpper(i)) == i+1 wherever upper is representable.
	for i := 0; i < numHistBuckets-1; i++ {
		up := histUpper(i)
		if up == math.MaxInt64 {
			continue
		}
		if got := histIndex(up); got != i+1 {
			t.Fatalf("histIndex(histUpper(%d)=%d) = %d, want %d", i, up, got, i+1)
		}
	}
}

func TestHistogramRecordAndSummary(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	h.Record(-5) // clamps to 0
	s := h.Snapshot()
	if s.Count != 1001 {
		t.Fatalf("count = %d, want 1001", s.Count)
	}
	if s.Sum != 1000*1001/2 {
		t.Fatalf("sum = %d, want %d", s.Sum, 1000*1001/2)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %d, want 1000", s.Max)
	}
	sum := s.Summary()
	// The uniform 1..1000 stream: quantile upper bounds may overshoot
	// by one sub-bucket (12.5%).
	check := func(name string, got, want int64) {
		t.Helper()
		if got < want || float64(got) > float64(want)*1.13+1 {
			t.Fatalf("%s = %d, want within [%d, %.0f]", name, got, want, float64(want)*1.13+1)
		}
	}
	check("p50", sum.P50, 500)
	check("p90", sum.P90, 900)
	check("p99", sum.P99, 990)
	if sum.Max != 1000 {
		t.Fatalf("summary max = %d, want 1000", sum.Max)
	}
	if sum.Mean != s.Sum/s.Count {
		t.Fatalf("mean = %d, want %d", sum.Mean, s.Sum/s.Count)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
	var h Histogram
	h.Record(42)
	s := h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); got != 42 {
			t.Fatalf("single-sample quantile(%v) = %d, want 42 (clamped to max)", q, got)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for v := int64(0); v < 100; v++ {
		a.Record(v)
		b.Record(v + 1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 200 {
		t.Fatalf("merged count = %d, want 200", sa.Count)
	}
	if sa.Max != 1099 {
		t.Fatalf("merged max = %d, want 1099", sa.Max)
	}
	if sa.Sum != sb.Sum+99*100/2 {
		t.Fatalf("merged sum = %d", sa.Sum)
	}
}

// TestHistogramConcurrent hammers Record and Snapshot from P
// goroutines; run under -race this pins the lock-freedom claim, and
// the final totals pin that no sample is lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	workers := runtime.GOMAXPROCS(0) * 2
	const perWorker = 5000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent snapshot reader
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.Count < 0 {
					t.Error("negative count in snapshot")
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(int64(w*perWorker + i))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	s := h.Snapshot()
	want := int64(workers) * perWorker
	if s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	if s.Max != int64(workers*perWorker-1) {
		t.Fatalf("max = %d, want %d", s.Max, workers*perWorker-1)
	}
	var cells int64
	for _, c := range s.Counts {
		cells += c
	}
	if cells != want {
		t.Fatalf("bucket cell total = %d, want %d", cells, want)
	}
}

func TestObserveSinceAndClock(t *testing.T) {
	var nilRec *Recorder
	if !nilRec.Clock().IsZero() {
		t.Fatal("nil recorder Clock should be zero")
	}
	x := HistOpLatencyNs
	nilRec.ObserveSince(x, time.Now()) // no-op, must not panic
	r := NewRecorder()
	start := r.Clock()
	if start.IsZero() {
		t.Fatal("live recorder Clock should not be zero")
	}
	r.ObserveSince(x, start)
	if s := r.HistSummary(x.Name()); s.Count != 1 {
		t.Fatalf("ObserveSince recorded %d samples, want 1", s.Count)
	}
	r.ObserveSince(x, time.Time{}) // zero start is a no-op
	if s := r.HistSummary(x.Name()); s.Count != 1 {
		t.Fatal("zero-start ObserveSince must not record")
	}
}
