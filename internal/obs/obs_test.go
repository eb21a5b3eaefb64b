package obs

import (
	"bytes"
	"encoding/json"
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
	if sp.Arg("k", 1) != nil || sp.ArgInt("k", 1) != nil {
		t.Fatal("Arg and ArgInt on nil span should stay nil")
	}
	if sp.End() != 0 {
		t.Fatal("End on nil span should return 0")
	}
	ran := false
	r.Phase("p", func() { ran = true })
	if !ran {
		t.Fatal("Phase must still run f on a nil recorder")
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

// TestArgIntFreeWhenOff: a span argument on a disabled recorder must
// cost nothing. Arg's value is boxed at the call site, before Arg's nil
// check runs, and boxing an integer of 256 or more allocates; ArgInt
// takes the integer unboxed. v is a run-time value: a constant would be
// boxed statically and hide the difference.
func TestArgIntFreeWhenOff(t *testing.T) {
	var off *Recorder
	v := int64(len(t.Name())) + 1000
	if allocs := testing.AllocsPerRun(100, func() { off.StartSpan("x").ArgInt("k", v).End() }); allocs != 0 {
		t.Errorf("ArgInt on a nil recorder: %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { off.StartSpan("x").Arg("k", v).End() }); allocs != 1 {
		t.Errorf("Arg on a nil recorder: %v allocs; if it no longer boxes, ArgInt has no reason to exist", allocs)
	}
}

func TestSpansAndTraceRoundTrip(t *testing.T) {
	r := NewRecorder()
	sp := r.StartSpan("kcore.round").Arg("bucket", 3).ArgInt("frontier", 17)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Fatalf("span duration %v too short", d)
	}
	r.Phase("load", func() { time.Sleep(100 * time.Microsecond) })
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
	// Each round also emits a "C" trace event.
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events=%d, want 3", len(evs))
	}
	if evs[0].Name != "kcore.round_metrics" || evs[0].Phase != "C" {
		t.Fatalf("round event %+v", evs[0])
	}
	if evs[1].Args["frontier"] != 20 {
		t.Fatalf("round event args %v", evs[1].Args)
	}
}

func TestTraceIsPerfettoLoadableShape(t *testing.T) {
	// The object form must serialize with a top-level traceEvents array
	// whose entries carry ph/ts/pid — the minimum Perfetto requires.
	r := NewRecorder()
	r.Phase("p", func() {})
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
