package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// This file is the stdlib-only HTTP debug surface (DESIGN.md §10):
// Prometheus-text-format /metrics, a JSON /debug/obs dump, and the
// net/http/pprof handlers, all mounted on a private mux so binaries
// never leak debug handlers onto http.DefaultServeMux. The kernel CLI
// exposes it behind -http; the service (internal/serve, cmd/served)
// routes /metrics, /debug/obs and /debug/pprof/ to the same mux.

// MetricsPrefix namespaces every exposed metric name.
const MetricsPrefix = "julienne_"

// promName converts an internal dotted metric name ("bucket.next_ns")
// to a prefixed Prometheus-legal one ("julienne_bucket_next_ns").
func promName(name string) string {
	b := []byte(MetricsPrefix + name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// WriteMetrics writes the recorder's counters, gauges, and histograms
// in the Prometheus text exposition format (version 0.0.4). Histogram
// series emit cumulative le-labeled buckets at the non-empty bucket
// boundaries plus +Inf, and the _sum/_count pair. A nil recorder
// writes a valid, empty exposition.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	var err error
	p := func(s string) {
		if err == nil {
			_, err = io.WriteString(w, s)
		}
	}
	if r == nil {
		p("# no recorder attached\n")
		return err
	}
	p("# TYPE " + MetricsPrefix + "uptime_seconds gauge\n")
	p(MetricsPrefix + "uptime_seconds " +
		strconv.FormatFloat(r.Elapsed().Seconds(), 'f', 3, 64) + "\n")

	// Names are derived from the same snapshot the values come from.
	// (The Names()/values() pairs walk the sync.Map twice, so a metric
	// registered between the walks used to show up with a zero value —
	// a torn scrape the /metrics hammer test pins.)
	counters := r.Counters()
	for _, name := range sortedKeys(counters) {
		pn := promName(name)
		p("# TYPE " + pn + " counter\n")
		p(pn + " " + strconv.FormatInt(counters[name], 10) + "\n")
	}
	gauges := r.Gauges()
	for _, name := range sortedKeys(gauges) {
		pn := promName(name)
		p("# TYPE " + pn + " gauge\n")
		p(pn + " " + strconv.FormatInt(gauges[name], 10) + "\n")
	}
	hists := r.Histograms()
	for _, name := range sortedKeys(hists) {
		s := hists[name]
		pn := promName(name)
		p("# TYPE " + pn + " histogram\n")
		var cum int64
		for i, c := range s.Counts {
			if c == 0 {
				continue
			}
			cum += c
			p(pn + `_bucket{le="` + strconv.FormatInt(histUpper(i)-1, 10) + `"} ` +
				strconv.FormatInt(cum, 10) + "\n")
		}
		// The snapshot loads the count cell before the per-bucket
		// cells, so samples recorded mid-snapshot can push the summed
		// buckets past Count. Clamp the terminal values up so the
		// cumulative series stays monotone (le="+Inf" >= every bucket
		// and == _count), which Prometheus clients require.
		total := s.Count
		if cum > total {
			total = cum
		}
		p(pn + `_bucket{le="+Inf"} ` + strconv.FormatInt(total, 10) + "\n")
		p(pn + "_sum " + strconv.FormatInt(s.Sum, 10) + "\n")
		p(pn + "_count " + strconv.FormatInt(total, 10) + "\n")
	}
	return err
}

// sortedKeys returns m's keys in sorted order, so the exposition is
// stable and every printed name is backed by the same snapshot.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// debugDump is the /debug/obs JSON shape.
type debugDump struct {
	UptimeNs   int64                       `json:"uptime_ns"`
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms"`
	Rounds     int                         `json:"rounds"`
	Flight     []FlightRecord              `json:"flight"`
}

// debugFlightTail is how many of the ring's newest records /debug/obs
// shows: one page, not the whole ring.
const debugFlightTail = 256

// WriteDebugJSON writes the one-page JSON diagnostic dump: counter and
// gauge values, histogram summaries, the number of rounds ever
// recorded, and the last debugFlightTail of them. Valid (an empty
// dump) on a nil recorder.
func (r *Recorder) WriteDebugJSON(w io.Writer) error {
	d := debugDump{
		UptimeNs:   r.Elapsed().Nanoseconds(),
		Counters:   r.Counters(),
		Gauges:     r.Gauges(),
		Histograms: map[string]HistogramSummary{},
		Rounds:     r.NumRounds(),
		Flight:     r.FlightTail(debugFlightTail),
	}
	if d.Counters == nil {
		d.Counters = map[string]int64{}
	}
	if d.Flight == nil {
		d.Flight = []FlightRecord{}
	}
	for name, s := range r.Histograms() {
		d.Histograms[name] = s.Summary()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ServeMux returns the debug mux for one recorder:
//
//	/metrics        Prometheus text exposition (counters, gauges, histograms)
//	/debug/obs      JSON: counters, histogram summaries, flight tail
//	/debug/pprof/*  net/http/pprof profiles
//
// The mux is self-contained (nothing registers on DefaultServeMux) and
// nil-recorder-safe, so it can be mounted before telemetry exists.
func ServeMux(r *Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteDebugJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, _ *http.Request) {
		routes := []string{"/metrics", "/debug/obs", "/debug/pprof/"}
		sort.Strings(routes)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "julienne debug surface\n")
		for _, rt := range routes {
			io.WriteString(w, "  "+rt+"\n")
		}
	})
	return mux
}
