package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	promSample = regexp.MustCompile(
		`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="(\+Inf|[0-9]+)"\})? -?[0-9]+(\.[0-9]+)?$`)
	promComment = regexp.MustCompile(
		`^# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|HELP .*)$`)
)

// checkPromText is the Prometheus-text-format parse check the
// acceptance criteria call for: every line is a well-formed comment or
// sample, histogram series have cumulative non-decreasing buckets, a
// +Inf bucket, and matching _count, and all names carry the prefix.
func checkPromText(t *testing.T, r io.Reader) map[string]int64 {
	t.Helper()
	values := map[string]int64{}
	type histState struct {
		lastCum int64
		inf     int64
		hasInf  bool
	}
	hists := map[string]*histState{}
	sc := bufio.NewScanner(r)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		lines++
		if strings.HasPrefix(line, "#") {
			if !promComment.MatchString(line) {
				t.Fatalf("malformed comment line: %q", line)
			}
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, rest, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(name, MetricsPrefix) {
			t.Fatalf("metric %q lacks prefix %q", name, MetricsPrefix)
		}
		if strings.Contains(name, "{") {
			base, label, _ := strings.Cut(name, "{")
			cum, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			h := hists[base]
			if h == nil {
				h = &histState{}
				hists[base] = h
			}
			if cum < h.lastCum {
				t.Fatalf("histogram %s buckets not cumulative: %d after %d", base, cum, h.lastCum)
			}
			h.lastCum = cum
			if strings.HasPrefix(label, `le="+Inf"`) {
				h.inf = cum
				h.hasInf = true
			}
			continue
		}
		if v, err := strconv.ParseInt(rest, 10, 64); err == nil {
			values[name] = v
		} else if _, ferr := strconv.ParseFloat(rest, 64); ferr != nil {
			t.Fatalf("unparseable value in %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty exposition")
	}
	for base, h := range hists {
		if !h.hasInf {
			t.Fatalf("histogram %s has no +Inf bucket", base)
		}
		if count, ok := values[strings.TrimSuffix(base, "_bucket")+"_count"]; !ok || count != h.inf {
			t.Fatalf("histogram %s: +Inf bucket %d != count %d", base, h.inf, count)
		}
	}
	return values
}

func TestWriteMetricsPromFormat(t *testing.T) {
	r := NewRecorder()
	r.Add(CtrBucketExtracted, 42)
	r.SetGauge(GaugeEdgeMapLastDense, 1)
	for v := int64(1); v <= 100; v++ {
		r.Observe(HistRoundLatencyNs, v*1000)
	}
	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	values := checkPromText(t, strings.NewReader(sb.String()))
	if values["julienne_bucket_extracted"] != 42 {
		t.Fatalf("counter not exposed: %v", values)
	}
	if values["julienne_round_latency_ns_count"] != 100 {
		t.Fatalf("histogram count not exposed: %v", values)
	}
	if values["julienne_round_latency_ns_sum"] != 1000*100*101/2 {
		t.Fatalf("histogram sum wrong: %v", values["julienne_round_latency_ns_sum"])
	}
}

func TestServeMuxEndpoints(t *testing.T) {
	r := NewRecorder()
	r.Inc(CtrBucketReturned)
	r.RecordRound(RoundMetrics{Algo: "kcore", Round: 1, Bucket: 3,
		FrontierSize: 12, Duration: 5 * time.Millisecond})
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		rw := httptest.NewRecorder()
		ServeMux(r).ServeHTTP(rw, req)
		return rw
	}

	metrics := get("/metrics")
	if metrics.Code != 200 {
		t.Fatalf("/metrics status %d", metrics.Code)
	}
	if ct := metrics.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	values := checkPromText(t, metrics.Body)
	if values["julienne_round_latency_ns_count"] != 1 {
		t.Fatalf("round latency histogram missing from /metrics: %v", values)
	}

	debug := get("/debug/obs")
	if debug.Code != 200 {
		t.Fatalf("/debug/obs status %d", debug.Code)
	}
	var dump struct {
		Counters   map[string]int64            `json:"counters"`
		Histograms map[string]HistogramSummary `json:"histograms"`
		Rounds     int                         `json:"rounds"`
		Flight     []FlightRecord              `json:"flight"`
	}
	if err := json.NewDecoder(debug.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/obs is not JSON: %v", err)
	}
	if dump.Counters[CtrBucketReturned.Name()] != 1 || dump.Rounds != 1 {
		t.Fatalf("debug dump wrong: %+v", dump)
	}
	if len(dump.Flight) != 1 || dump.Flight[0].Algo != "kcore" {
		t.Fatalf("debug dump flight tail wrong: %+v", dump.Flight)
	}
	if s, ok := dump.Histograms[HistRoundLatencyNs.Name()]; !ok || s.Count != 1 {
		t.Fatalf("debug dump histograms wrong: %+v", dump.Histograms)
	}

	if rc := get("/debug/pprof/").Code; rc != 200 {
		t.Fatalf("/debug/pprof/ status %d", rc)
	}
	if body := get("/").Body.String(); !strings.Contains(body, "/metrics") {
		t.Fatalf("index page should list routes, got %q", body)
	}
}

// TestDebugObsTailIsOnePage: /debug/obs shows the newest
// debugFlightTail records however full the ring is, and "rounds" stays
// the all-time count.
func TestDebugObsTailIsOnePage(t *testing.T) {
	r := NewRecorder()
	total := flightSlots + 10
	for i := 1; i <= total; i++ {
		r.RecordRound(RoundMetrics{Algo: "kcore", Round: int64(i)})
	}
	var buf bytes.Buffer
	if err := r.WriteDebugJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Rounds int            `json:"rounds"`
		Flight []FlightRecord `json:"flight"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Rounds != total || len(dump.Flight) != debugFlightTail || dump.Flight[len(dump.Flight)-1].Round != int64(total) {
		t.Fatalf("dump has rounds=%d and %d flight records, want %d and the last %d", dump.Rounds, len(dump.Flight), total, debugFlightTail)
	}
}

func TestServeMuxNilRecorder(t *testing.T) {
	mux := ServeMux(nil)
	for _, path := range []string{"/metrics", "/debug/obs", "/"} {
		req := httptest.NewRequest("GET", path, nil)
		rw := httptest.NewRecorder()
		mux.ServeHTTP(rw, req)
		if rw.Code != 200 {
			t.Fatalf("%s on nil recorder: status %d", path, rw.Code)
		}
	}
}
