// Package obs is the framework's runtime telemetry layer: named atomic
// counters and gauges, span timers that emit Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto), and per-round hooks that
// capture the quantities the paper's evaluation reasons about —
// frontier sizes, bucket extracted/moved/skipped traffic, and edgeMap
// direction decisions (§3.4, §5).
//
// The package has no dependencies beyond the standard library, and the
// whole API is nil-safe: every method on a nil *Recorder (and on the
// nil *Span it hands out) is a no-op, so instrumented code pays only a
// nil check when telemetry is disabled. Algorithms accept an optional
// *Recorder and simply call through it unconditionally.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder accumulates telemetry for one run (or one process). The
// zero value is not useful; create one with NewRecorder. A nil
// *Recorder is a valid, fully inert recorder.
//
// All methods are safe for concurrent use.
type Recorder struct {
	start time.Time

	counters sync.Map // string -> *atomic.Int64
	gauges   sync.Map // string -> *atomic.Int64
	hists    sync.Map // string -> *Histogram, atomic cells
	algos    sync.Map // string -> *string, the flight ring's algo names

	// flight is the round log (flight.go): every per-round view reads it.
	flight *flightRing
	// observers is copy-on-write, so RecordRound reads it without r.mu.
	observers atomic.Pointer[[]RoundObserver]

	mu     sync.Mutex // guards events (the spans) and OnRound's swap
	events []TraceEvent
}

// NewRecorder creates an empty recorder whose trace clock starts now.
func NewRecorder() *Recorder {
	r := &Recorder{start: time.Now(), flight: new(flightRing)}
	// Seed the allocation sample so the first round's delta is
	// measured from here rather than from process start.
	r.flight.lastAllocs.Store(heapAllocsSample())
	return r
}

// cell returns the atomic slot for name in m, creating it on first use.
func cell(m *sync.Map, name string) *atomic.Int64 {
	if v, ok := m.Load(name); ok {
		return v.(*atomic.Int64)
	}
	v, _ := m.LoadOrStore(name, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// Add adds delta to the counter.
func (r *Recorder) Add(c Counter, delta int64) {
	if r == nil {
		return
	}
	cell(&r.counters, c.name).Add(delta)
}

// Inc increments the counter by one.
func (r *Recorder) Inc(c Counter) { r.Add(c, 1) }

// Counter returns the current value of the named counter (0 if it was
// never touched).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// SetGauge sets the gauge to v.
func (r *Recorder) SetGauge(g Gauge, v int64) {
	if r == nil {
		return
	}
	cell(&r.gauges, g.name).Store(v)
}

// Gauge returns the current value of the named gauge (0 if unset).
func (r *Recorder) Gauge(name string) int64 {
	if r == nil {
		return 0
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// Counters returns a point-in-time snapshot of all counters.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64)
	r.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// CounterNames returns the counter names in sorted order, for stable
// reporting.
func (r *Recorder) CounterNames() []string {
	if r == nil {
		return nil
	}
	var names []string
	r.counters.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// --- spans -------------------------------------------------------------------

// Span is an open interval of wall-clock time that becomes one
// complete ("ph":"X") trace event when ended. Spans from a nil
// recorder are nil and every method on them is a no-op.
type Span struct {
	r     *Recorder
	name  string
	begin time.Time
	args  map[string]any
}

// StartSpan opens a span. End it to emit the trace event.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, name: name, begin: time.Now()}
}

// Arg attaches a key/value argument shown in the trace viewer's detail
// pane. It returns the span for chaining.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = value
	return s
}

// End closes the span, records its trace event, and returns its
// duration (0 on a nil span).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.begin)
	ev := TraceEvent{Name: s.name, Phase: "X", Ts: micros(s.begin.Sub(s.r.start)),
		Dur: micros(d), Pid: 1, Tid: 1, Args: s.args}
	s.r.mu.Lock()
	s.r.events = append(s.r.events, ev)
	s.r.mu.Unlock()
	return d
}

// --- trace output ------------------------------------------------------------

// TraceEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// "X" events are complete spans, "C" events are counter samples.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds since trace start
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object format of a trace (the array format is
// also valid, but the object form allows metadata).
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Elapsed returns the time since the recorder was created.
func (r *Recorder) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Events returns the trace events recorded so far: the spans, then
// the per-round events rendered from the rounds the flight ring
// retains.
func (r *Recorder) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	evs := append([]TraceEvent(nil), r.events...)
	r.mu.Unlock()
	return append(evs, r.roundEvents()...)
}

// WriteTrace writes Events as a Chrome trace-event JSON object
// ({"traceEvents": [...]}) loadable by chrome://tracing and Perfetto.
// Counter totals are appended as one final metadata event so they
// survive into the trace file. Writing on a nil recorder writes an
// empty, still-valid trace.
func (r *Recorder) WriteTrace(w io.Writer) error {
	var evs []TraceEvent
	if r != nil {
		evs = r.Events()
		if counters := r.Counters(); len(counters) > 0 {
			args := make(map[string]any, len(counters))
			for k, v := range counters {
				args[k] = v
			}
			evs = append(evs, TraceEvent{
				Name: "counters.final", Phase: "C",
				Ts: micros(time.Since(r.start)), Pid: 1, Args: args,
			})
		}
	}
	if evs == nil {
		evs = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
