package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/obs"
)

func TestDeltasPairsByName(t *testing.T) {
	base := Baseline{
		Commit: "abc",
		Entries: []GoBench{
			{Name: "A", BytesPerOp: 1000},
			{Name: "B", BytesPerOp: 500},
			{Name: "missing", BytesPerOp: 9},
		},
	}
	cur := []GoBench{{Name: "A", BytesPerOp: 600}, {Name: "B", BytesPerOp: 500}}
	ds := deltas(base, cur)
	if len(ds) != 2 {
		t.Fatalf("got %d deltas, want 2 (unmatched baseline rows dropped)", len(ds))
	}
	if ds[0].Name != "A" || ds[0].BytesChangePct != -40 {
		t.Fatalf("A: %+v", ds[0])
	}
	if ds[1].BytesChangePct != 0 {
		t.Fatalf("B: %+v", ds[1])
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := newReport("bucket", Config{Smoke: true}, bucketBaseline)
	rep.Results = append(rep.Results, Entry{
		Name: "x", Procs: 1, NsPerOp: 10, BytesPerOp: 20, Rounds: 2,
		NsPerRound: 5, BytesPerRound: 10,
		Counters: map[string]int64{"bucket.moved": 7},
	})
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Kind != "bucket" || len(back.Results) != 1 || back.Baseline.Commit == "" {
		t.Fatalf("round-trip lost fields: %+v", back)
	}
	if back.Results[0].Counters["bucket.moved"] != 7 {
		t.Fatal("counters lost")
	}
}

// TestFusionReducesRounds pins the ablation's headline claim on a
// CI-sized road-like input: maximal bucket fusion must extract at
// least 3x fewer bucket rounds than the unfused run on a weighted
// grid, at identical distances and near-identical relaxation counts.
// (Near: inside a fused span a vertex can be relaxed through an
// intermediate tentative distance the strict bucket order would have
// skipped, so the fused count runs a few percent above unfused; the
// savings must come from fewer rounds, not a different traversal.)
func TestFusionReducesRounds(t *testing.T) {
	g := gen.LogWeights(gen.Grid2D(40, 50), 2017)
	unfused := sssp.WBFS(g, 0, sssp.Options{})
	fused := sssp.WBFS(g, 0, sssp.Options{Fusion: bucket.MaximalFusion()})
	ur, fr := unfused.BucketStats.BucketsReturned, fused.BucketStats.BucketsReturned
	if ur <= 0 || fr <= 0 {
		t.Fatalf("degenerate runs: unfused %d rounds, fused %d", ur, fr)
	}
	if 3*fr > ur {
		t.Fatalf("fused wBFS extracted %d bucket rounds vs unfused %d; want at least 3x fewer", fr, ur)
	}
	// Parallel relaxation counts are scheduling-dependent (successful
	// atomic-min races), so bound the ratio rather than demanding
	// equality: a fused traversal of the same graph stays within
	// [0.75x, 1.5x] of the unfused count.
	if r := 4 * fused.Relaxations; r < 3*unfused.Relaxations || r > 6*unfused.Relaxations {
		t.Errorf("fusion changed the traversal: %d relaxations vs unfused %d (want near-identical)",
			fused.Relaxations, unfused.Relaxations)
	}
	for v := range fused.Dist {
		if fused.Dist[v] != unfused.Dist[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, fused.Dist[v], unfused.Dist[v])
		}
	}
}

// TestCheckFusionAblation exercises the report gate cmd/bench
// -assert-fusion applies, on synthetic reports.
func TestCheckFusionAblation(t *testing.T) {
	entry := func(name string, procs int, rounds int64) Entry {
		return Entry{Name: name, Family: "grid", Procs: procs,
			Counters: map[string]int64{obs.CtrBucketReturned.Name(): rounds}}
	}
	good := &Report{Results: []Entry{
		entry("wbfs", 1, 900), entry("wbfs-fused", 1, 120),
		entry("delta-stepping", 1, 60), entry("delta-stepping-fused", 1, 40),
	}}
	if err := CheckFusionAblation(good); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		rep  *Report
		want string
	}{
		{"no fused entries", &Report{Results: []Entry{entry("wbfs", 1, 900)}}, "no fused grid-family entries"},
		{"missing counterpart", &Report{Results: []Entry{entry("wbfs-fused", 1, 120)}}, "no unfused wbfs entry"},
		{"not fewer", &Report{Results: []Entry{
			entry("delta-stepping", 1, 40), entry("delta-stepping-fused", 1, 40)}}, "not fewer"},
		{"wbfs below 3x", &Report{Results: []Entry{
			entry("wbfs", 1, 200), entry("wbfs-fused", 1, 100)}}, "at least 3x fewer"},
		{"counter missing", &Report{Results: []Entry{
			entry("wbfs", 1, 900), {Name: "wbfs-fused", Family: "grid", Procs: 1}}}, "counter missing"},
	} {
		err := CheckFusionAblation(tc.rep)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckForkBudget exercises the report gate cmd/bench -assert-forks
// applies, on synthetic reports.
func TestCheckForkBudget(t *testing.T) {
	entry := func(name, family string, procs int, perRound float64) Entry {
		return Entry{Name: name, Family: family, Procs: procs, Rounds: 1000, ForksPerRound: &perRound}
	}
	good := &Report{Results: []Entry{
		entry("wbfs", "grid", 1, 0), entry("wbfs", "grid", 2, 0.01),
		entry("wbfs", "rmat-sym", 2, 3), entry("kcore", "grid", 2, 1), // not the gated rows
	}}
	if checked, err := CheckForkBudget(good); err != nil || checked != 1 {
		t.Fatalf("good report: checked %d, err %v; want 1, nil", checked, err)
	}
	if checked, err := CheckForkBudget(&Report{Results: []Entry{entry("wbfs", "grid", 1, 0)}}); err != nil || checked != 0 {
		t.Errorf("single-CPU report: checked %d, err %v; want 0, nil", checked, err)
	}
	for _, tc := range []struct {
		name string
		rep  *Report
		want string
	}{
		{"a fork per round", &Report{Results: []Entry{entry("wbfs", "grid", 2, 1.2)}}, "forked 1.200 times per round"},
		{"counter missing", &Report{Results: []Entry{{Name: "wbfs", Family: "grid", Procs: 2}}}, "no parallel.forked counter"},
	} {
		if _, err := CheckForkBudget(tc.rep); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestFormatSummary(t *testing.T) {
	rep := newReport("algos", Config{}, algosBaseline)
	rep.Comparison = []Delta{{
		Name:   "BenchmarkKCoreRecorderOff",
		Before: GoBench{BytesPerOp: 1000}, After: GoBench{BytesPerOp: 700},
		BytesChangePct: -30,
	}}
	s := FormatSummary(rep)
	if !strings.Contains(s, "BenchmarkKCoreRecorderOff") || !strings.Contains(s, "-30.0%") {
		t.Fatalf("summary: %q", s)
	}
}
