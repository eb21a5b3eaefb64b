package obs

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func recordN(r *Recorder, algo string, n int) {
	for i := 1; i <= n; i++ {
		r.RecordRound(RoundMetrics{
			Algo: algo, Round: int64(i), Bucket: uint32(i % 7),
			FrontierSize: 10 * i, EdgesTraversed: int64(100 * i),
			Extracted: int64(i), Moved: int64(2 * i), Skipped: int64(3 * i),
			Duration: time.Duration(i) * time.Microsecond,
		})
	}
}

func TestFlightTailBasic(t *testing.T) {
	r := NewRecorder()
	recordN(r, "kcore", 5)
	if r.NumRounds() != 5 {
		t.Fatalf("NumRounds = %d, want 5", r.NumRounds())
	}
	tail := r.FlightTail(3)
	if len(tail) != 3 {
		t.Fatalf("tail length = %d, want 3", len(tail))
	}
	for i, rec := range tail {
		wantRound := int64(3 + i)
		if rec.Round != wantRound || rec.Seq != wantRound {
			t.Fatalf("tail[%d] = round %d seq %d, want %d", i, rec.Round, rec.Seq, wantRound)
		}
		if rec.Algo != "kcore" {
			t.Fatalf("tail[%d].Algo = %q, want kcore", i, rec.Algo)
		}
		if int64(rec.FrontierSize) != 10*wantRound {
			t.Fatalf("tail[%d].FrontierSize = %d", i, rec.FrontierSize)
		}
		if rec.Duration != time.Duration(wantRound)*time.Microsecond {
			t.Fatalf("tail[%d].Duration = %v", i, rec.Duration)
		}
	}
	// Asking for more than recorded returns everything.
	if got := len(r.FlightTail(100)); got != 5 {
		t.Fatalf("oversized tail length = %d, want 5", got)
	}
}

// TestFlightRingWraps pins the fixed memory bound: after more rounds
// than slots, only the newest flightSlots records survive, in order.
func TestFlightRingWraps(t *testing.T) {
	r := NewRecorder()
	total := flightSlots + 57
	recordN(r, "sssp", total)
	tail := r.FlightTail(flightSlots + 1000)
	if len(tail) != flightSlots {
		t.Fatalf("tail length = %d, want %d", len(tail), flightSlots)
	}
	for i, rec := range tail {
		want := int64(total - flightSlots + 1 + i)
		if rec.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
	}
}

func TestFlightUnbucketedRound(t *testing.T) {
	r := NewRecorder()
	r.RecordRound(RoundMetrics{Algo: "densest", Round: 1, Bucket: ^uint32(0), FrontierSize: 4})
	tail := r.FlightTail(1)
	if len(tail) != 1 || tail[0].Bucket != ^uint32(0) {
		t.Fatalf("unbucketed round should keep Bucket=^uint32(0), got %+v", tail)
	}
	var buf bytes.Buffer
	WriteFlightText(&buf, tail)
	if !strings.Contains(buf.String(), "densest") || !strings.Contains(buf.String(), " - ") {
		t.Fatalf("flight text missing algo name or unbucketed \"-\":\n%s", buf.String())
	}
	for _, ev := range r.Events() {
		if _, ok := ev.Args["bucket"]; ok {
			t.Fatalf("unbucketed round rendered with a bucket: %+v", ev)
		}
	}
}

func TestWriteFlightTextEmpty(t *testing.T) {
	var buf bytes.Buffer
	WriteFlightText(&buf, nil)
	if !strings.Contains(buf.String(), "no rounds") {
		t.Fatalf("empty dump should say so, got %q", buf.String())
	}
}

// TestFlightConcurrent hammers ring writes and tail reads from P
// goroutines under -race: every decoded record must be internally
// consistent (the seqlock must never expose a torn slot), and the
// copy-on-write algo-name table and observer list must stay intact
// while writers intern new names and register observers mid-run.
func TestFlightConcurrent(t *testing.T) {
	r := NewRecorder()
	var observed atomic.Int64
	r.OnRound(func(RoundMetrics) { observed.Add(1) })
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 2000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range r.FlightTail(32) {
					// Writers encode round = frontier = duration(ns), so a
					// torn slot shows up as a field mismatch.
					if int64(rec.FrontierSize) != rec.Round || int64(rec.Duration) != rec.Round ||
						!strings.HasPrefix(rec.Algo, "hammer") {
						t.Errorf("torn flight record: %+v", rec)
						return
					}
				}
				_ = r.Rounds()
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				v := int64(w*perWorker + i)
				r.RecordRound(RoundMetrics{
					Algo: fmt.Sprintf("hammer%d", i%5), Round: v, FrontierSize: int(v),
					Duration: time.Duration(v),
				})
				if i%500 == 0 {
					r.OnRound(func(RoundMetrics) {})
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := r.NumRounds(); got != workers*perWorker {
		t.Fatalf("NumRounds = %d, want %d", got, workers*perWorker)
	}
	if got := observed.Load(); got != int64(workers)*perWorker {
		t.Fatalf("first observer saw %d rounds, want %d", got, int64(workers)*perWorker)
	}
}

// TestCanceledCarriesTail pins satellite 1 at the obs level: the error
// built by NewCanceled embeds the flight tail.
func TestCanceledCarriesTail(t *testing.T) {
	r := NewRecorder()
	recordN(r, "kcore", 30)
	c := r.NewCanceled("kcore", 30, context.Canceled)
	if len(c.Tail) != flightTailDefault {
		t.Fatalf("tail length = %d, want %d", len(c.Tail), flightTailDefault)
	}
	if last := c.Tail[len(c.Tail)-1]; last.Round != 30 {
		t.Fatalf("last tail round = %d, want 30", last.Round)
	}
	var buf bytes.Buffer
	c.WriteTail(&buf)
	if !strings.Contains(buf.String(), "flight recorder") {
		t.Fatal("WriteTail produced no table")
	}
	// Nil recorder: valid error, empty tail.
	var nilRec *Recorder
	c2 := nilRec.NewCanceled("x", 1, context.Canceled)
	if c2 == nil || c2.Tail != nil || c2.Algo != "x" {
		t.Fatalf("nil-recorder NewCanceled = %+v", c2)
	}
}

// TestNilRecorderNewMethods extends the nil no-op contract to every
// method this PR adds (satellite 3).
func TestNilRecorderNewMethods(t *testing.T) {
	var r *Recorder
	h := HistOpLatencyNs
	if r.histogram(h.Name()) != nil {
		t.Fatal("nil recorder histogram should be nil")
	}
	r.histogram(h.Name()).Record(1) // nil *Histogram, still a no-op
	r.histogram(h.Name()).RecordDuration(time.Second)
	if s := r.histogram(h.Name()).Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot should be zero")
	}
	r.Observe(h, 1)
	r.ObserveDuration(h, time.Second)
	r.ObserveSince(h, time.Now())
	if !r.Clock().IsZero() {
		t.Fatal("nil recorder Clock should be zero")
	}
	if r.Histograms() != nil || r.HistogramNames() != nil {
		t.Fatal("nil recorder histogram snapshots should be nil")
	}
	if r.Gauges() != nil {
		t.Fatal("nil recorder gauge snapshots should be nil")
	}
	if s := r.HistSummary("h"); s.Count != 0 {
		t.Fatal("nil recorder HistSummary should be zero")
	}
	if r.FlightTail(5) != nil {
		t.Fatal("nil recorder FlightTail should be nil")
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics on nil recorder: %v", err)
	}
	buf.Reset()
	if err := r.WriteDebugJSON(&buf); err != nil {
		t.Fatalf("WriteDebugJSON on nil recorder: %v", err)
	}
}
