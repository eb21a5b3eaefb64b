package obs

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorder exercises the whole API surface on a nil *Recorder
// (and the nil *Span it returns): every call must be a silent no-op.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Add(CtrBucketMoved, 5)
	r.Inc(CtrBucketMoved)
	if r.Counter(CtrBucketMoved.Name()) != 0 {
		t.Fatal("nil recorder counter should be 0")
	}
	r.SetGauge(GaugeServeInflight, 7)
	if r.Gauge(GaugeServeInflight.Name()) != 0 {
		t.Fatal("nil recorder gauge should be 0")
	}
	if r.Counters() != nil || r.CounterNames() != nil {
		t.Fatal("nil recorder snapshots should be nil")
	}
	sp := r.StartSpan("s")
	if sp != nil {
		t.Fatal("nil recorder should hand out nil spans")
	}
	if sp.Arg("k", 1) != nil {
		t.Fatal("Arg on nil span should stay nil")
	}
	if sp.End() != 0 {
		t.Fatal("End on nil span should return 0")
	}
	// A span on a disabled recorder costs nothing: no Span, no args map.
	// (An argument's value is boxed by the caller before Arg's nil check
	// runs; a constant, as here, is boxed statically.)
	if allocs := testing.AllocsPerRun(100, func() { r.StartSpan("x").Arg("k", 1).End() }); allocs != 0 {
		t.Errorf("StartSpan(...).Arg(...).End() on a nil recorder: %v allocs, want 0", allocs)
	}
	r.OnRound(func(RoundMetrics) { t.Fatal("observer on nil recorder fired") })
	r.RecordRound(RoundMetrics{Algo: "x"})
	if r.Rounds() != nil || r.NumRounds() != 0 {
		t.Fatal("nil recorder rounds should be empty")
	}
	if r.Events() != nil || r.Elapsed() != 0 {
		t.Fatal("nil recorder events/elapsed should be empty")
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace on nil recorder: %v", err)
	}
	var tf struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("nil-recorder trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 0 {
		t.Fatalf("nil-recorder trace should be empty, got %d events", len(tf.TraceEvents))
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRecorder()
	shared, pairs := CtrBucketMoved, CtrBucketExtracted
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc(shared)
				r.Add(pairs, 2)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(shared.Name()); got != workers*perWorker {
		t.Fatalf("shared=%d, want %d", got, workers*perWorker)
	}
	if got := r.Counter(pairs.Name()); got != 2*workers*perWorker {
		t.Fatalf("pairs=%d, want %d", got, 2*workers*perWorker)
	}
	snap := r.Counters()
	if snap[shared.Name()] != workers*perWorker || snap[pairs.Name()] != 2*workers*perWorker {
		t.Fatalf("snapshot mismatch: %v", snap)
	}
	names := r.CounterNames()
	if len(names) != 2 || names[0] != pairs.Name() || names[1] != shared.Name() {
		t.Fatalf("CounterNames=%v, want sorted [%s %s]", names, pairs.Name(), shared.Name())
	}
}

func TestGauges(t *testing.T) {
	r := NewRecorder()
	dir := GaugeEdgeMapLastDense
	if r.Gauge(dir.Name()) != 0 {
		t.Fatal("unset gauge should read 0")
	}
	r.SetGauge(dir, 1)
	r.SetGauge(dir, 0)
	r.SetGauge(dir, 42)
	if r.Gauge(dir.Name()) != 42 {
		t.Fatalf("gauge=%d, want last-write 42", r.Gauge(dir.Name()))
	}
}

func TestSpansAndTraceRoundTrip(t *testing.T) {
	r := NewRecorder()
	sp := r.StartSpan("kcore.round").Arg("bucket", 3).Arg("frontier", 17)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Fatalf("span duration %v too short", d)
	}
	load := r.StartSpan("load")
	time.Sleep(100 * time.Microsecond)
	load.End()
	r.Add(CtrBucketExtracted, 9)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace does not round-trip through encoding/json: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit=%q", tf.DisplayTimeUnit)
	}
	// Two "X" spans plus the final "counters.final" C event.
	if len(tf.TraceEvents) != 3 {
		t.Fatalf("events=%d, want 3: %+v", len(tf.TraceEvents), tf.TraceEvents)
	}
	ev := tf.TraceEvents[0]
	if ev.Name != "kcore.round" || ev.Phase != "X" {
		t.Fatalf("first event %+v", ev)
	}
	if ev.Dur < 1000 { // microseconds
		t.Fatalf("span dur %v too short", ev.Dur)
	}
	// JSON numbers decode as float64.
	if ev.Args["bucket"] != float64(3) || ev.Args["frontier"] != float64(17) {
		t.Fatalf("span args %v", ev.Args)
	}
	last := tf.TraceEvents[len(tf.TraceEvents)-1]
	if last.Name != "counters.final" || last.Phase != "C" {
		t.Fatalf("last event %+v", last)
	}
	if last.Args["bucket.extracted"] != float64(9) {
		t.Fatalf("final counters %v", last.Args)
	}
	for i := 1; i < len(tf.TraceEvents); i++ {
		if tf.TraceEvents[i].Ts < tf.TraceEvents[i-1].Ts {
			t.Fatalf("timestamps not monotone: %+v", tf.TraceEvents)
		}
	}
}

func TestRecordRoundAndObservers(t *testing.T) {
	r := NewRecorder()
	var seen []RoundMetrics
	r.OnRound(func(m RoundMetrics) { seen = append(seen, m) })
	for i := int64(1); i <= 3; i++ {
		r.RecordRound(RoundMetrics{
			Algo: "kcore", Round: i, Bucket: uint32(i), FrontierSize: int(10 * i),
			Extracted: i, Moved: 2 * i, Skipped: 3 * i, Duration: time.Duration(i),
		})
	}
	if r.NumRounds() != 3 || len(seen) != 3 {
		t.Fatalf("rounds=%d observed=%d", r.NumRounds(), len(seen))
	}
	rounds := r.Rounds()
	for i, m := range rounds {
		if m != seen[i] {
			t.Fatalf("observer saw %+v, stored %+v", seen[i], m)
		}
	}
	if rounds[2].FrontierSize != 30 || rounds[2].Moved != 6 {
		t.Fatalf("round 3 = %+v", rounds[2])
	}
	// The trace renders each round as one "X" span with its bucket and
	// frontier and one "C" sample with its counts.
	var spans, samples []TraceEvent
	for _, ev := range r.Events() {
		switch {
		case ev.Name == "kcore.round" && ev.Phase == "X":
			spans = append(spans, ev)
		case ev.Name == "kcore.round_metrics" && ev.Phase == "C":
			samples = append(samples, ev)
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	if len(spans) != 3 || len(samples) != 3 {
		t.Fatalf("%d round spans and %d round samples, want 3 of each", len(spans), len(samples))
	}
	if spans[1].Args["bucket"] != int64(2) || spans[1].Args["frontier"] != int64(20) {
		t.Fatalf("round span args %v", spans[1].Args)
	}
	want := map[string]any{"frontier": int64(20), "edges": int64(0), "extracted": int64(2),
		"moved": int64(4), "skipped": int64(6), "forked": int64(0)}
	if !maps.Equal(samples[1].Args, want) {
		t.Fatalf("round sample args %v, want %v", samples[1].Args, want)
	}
}

// TestRecordRoundIsCheap pins the per-round cost on a warm recorder: no
// Span, no map and no event — the round goes to the ring, the two
// round histograms and the fork counters. The one allocation is the
// runtime/metrics sample behind the record's Allocs delta.
func TestRecordRoundIsCheap(t *testing.T) {
	r := NewRecorder()
	r.OnRound(func(RoundMetrics) {})
	m := RoundMetrics{Algo: "kcore", Round: 1, Bucket: 3, FrontierSize: 1000,
		Extracted: 1000, Forked: 1, Duration: time.Millisecond}
	r.RecordRound(m)
	if allocs := testing.AllocsPerRun(1000, func() { r.RecordRound(m) }); allocs != 1 {
		t.Errorf("RecordRound on a warm recorder: %v allocs, want 1", allocs)
	}
	if len(r.events) != 0 {
		t.Errorf("RecordRound stored %d events; rounds live only in the ring", len(r.events))
	}
}

// TestRoundsAreTheRing: a run longer than the ring keeps its last
// flightSlots rounds, in order, and every view agrees — Rounds, the
// rendered trace, and NumRounds as the all-time count.
func TestRoundsAreTheRing(t *testing.T) {
	r := NewRecorder()
	total := flightSlots + 100
	for i := 1; i <= total; i++ {
		r.RecordRound(RoundMetrics{Algo: "sssp", Round: int64(i), Bucket: uint32(i), FrontierSize: i})
	}
	if r.NumRounds() != total {
		t.Fatalf("NumRounds = %d, want %d", r.NumRounds(), total)
	}
	rounds := r.Rounds()
	if len(rounds) != flightSlots || rounds[0].Round != 101 || rounds[len(rounds)-1].Round != int64(total) {
		t.Fatalf("Rounds kept %d rounds [%d, %d], want the last %d", len(rounds),
			rounds[0].Round, rounds[len(rounds)-1].Round, flightSlots)
	}
	if evs := r.Events(); len(evs) != 2*flightSlots {
		t.Fatalf("trace renders %d round events, want %d", len(evs), 2*flightSlots)
	}
}

func TestTraceIsPerfettoLoadableShape(t *testing.T) {
	// The object form must serialize with a top-level traceEvents array
	// whose entries carry ph/ts/pid — the minimum Perfetto requires.
	r := NewRecorder()
	r.StartSpan("p").End()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"ts"`, `"pid"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
}
