package obs_test

import (
	"os"
	"strings"
	"testing"

	"julienne/internal/algo/kcore"
	"julienne/internal/gen"
	"julienne/internal/obs"
)

// TestHandleTable walks the one handle table in names.go: emitted names
// are unique across counters, gauges and histograms, and after a single
// touch every handle is reachable by that name through the string-keyed
// read side and the /metrics exposition.
func TestHandleTable(t *testing.T) {
	counters, gauges, hists := obs.Handles()
	if len(counters) == 0 || len(gauges) == 0 || len(hists) == 0 {
		t.Fatalf("handle table is empty: %d counters, %d gauges, %d histograms",
			len(counters), len(gauges), len(hists))
	}
	rec := obs.NewRecorder()
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if name == "" || seen[name] {
			t.Errorf("metric name %q is empty or declared twice", name)
		}
		seen[name] = true
	}
	for _, c := range counters {
		unique(c.Name())
		rec.Inc(c)
	}
	for _, g := range gauges {
		unique(g.Name())
		rec.SetGauge(g, 1)
	}
	for _, h := range hists {
		unique(h.Name())
		rec.Observe(h, 1)
	}
	var sb strings.Builder
	if err := rec.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exposed := func(name, suffix string) {
		t.Helper()
		line := obs.PromName(name) + suffix + " 1\n"
		if !strings.Contains(sb.String(), line) {
			t.Errorf("/metrics lacks %q after one touch", line)
		}
	}
	for _, c := range counters {
		if rec.Counter(c.Name()) != 1 || rec.Counters()[c.Name()] != 1 {
			t.Errorf("counter %q not readable by name", c.Name())
		}
		exposed(c.Name(), "")
	}
	for _, g := range gauges {
		if rec.Gauge(g.Name()) != 1 || rec.Gauges()[g.Name()] != 1 {
			t.Errorf("gauge %q not readable by name", g.Name())
		}
		exposed(g.Name(), "")
	}
	for _, h := range hists {
		if rec.HistSummary(h.Name()).Count != 1 || rec.Histograms()[h.Name()].Count != 1 {
			t.Errorf("histogram %q not readable by name", h.Name())
		}
		exposed(h.Name(), "_count")
	}
	if got, want := len(rec.CounterNames())+len(rec.Gauges())+len(rec.HistogramNames()), len(seen); got != want {
		t.Errorf("read side lists %d names, the table declares %d", got, want)
	}
}

// stableExposition drops the wall-clock-dependent lines of a /metrics
// scrape (the uptime sample, and the buckets and sum of every *_ns
// duration histogram) and the fork-budget counters, which depend on
// GOMAXPROCS and on what else the process is running, leaving series
// names, TYPE lines, counter and gauge values, sample counts, and the
// size histograms in full.
func stableExposition(text string) string {
	var out []string
	for _, line := range strings.SplitAfter(text, "\n") {
		switch {
		case strings.HasPrefix(line, obs.MetricsPrefix+"uptime_seconds "):
		case strings.Contains(line, "_ns_bucket{"), strings.Contains(line, "_ns_sum "):
		case strings.Contains(line, obs.MetricsPrefix+"parallel_"):
		default:
			out = append(out, line)
		}
	}
	return strings.Join(out, "")
}

// TestExpositionMatchesParentGolden pins that typed handles changed no
// emitted byte: the /metrics text of an instrumented k-core run equals
// testdata/kcore_metrics.golden, which was produced by the same run
// and filter on the last commit with string-keyed write methods. Its
// values were regenerated, series names unchanged, when a k-core round
// began peeling its level to the end on the caller (27 rounds, was 79).
func TestExpositionMatchesParentGolden(t *testing.T) {
	rec := obs.NewRecorder()
	kcore.Coreness(gen.RMAT(1<<10, 1<<13, true, 7), kcore.Options{Recorder: rec})
	var sb strings.Builder
	if err := rec.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	got := stableExposition(sb.String())
	want, err := os.ReadFile("testdata/kcore_metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from the parent-commit golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWellKnownNamesRoundLatencyAlwaysPresent pins that RecordRound
// feeds the two automatic histograms every consumer relies on.
func TestWellKnownNamesRoundLatencyAlwaysPresent(t *testing.T) {
	rec := obs.NewRecorder()
	kcore.Coreness(gen.RMAT(1<<10, 1<<13, true, 7), kcore.Options{Recorder: rec})
	for _, h := range []obs.Hist{obs.HistRoundLatencyNs, obs.HistRoundFrontier,
		obs.HistNextBucketNs, obs.HistUpdateBucketsNs} {
		if s := rec.HistSummary(h.Name()); s.Count == 0 {
			t.Errorf("histogram %q empty after an instrumented kcore run", h.Name())
		}
	}
}
