package bench

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"julienne/internal/bucket"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// TestStatistics pins the three statistics as pure functions on fixed
// arrays: fast-decile = mean of the smallest ⌈n/10⌉ samples.
func TestStatistics(t *testing.T) {
	ramp := func(n int) []time.Duration { // 1, 2, ..., n
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n                    int
		fast, median, spread time.Duration
	}{
		{1, 1, 1, 0},
		{9, 1, 5, 7 - 3},      // ⌈9/10⌉ = 1; quartile ranks 3 and 7
		{10, 1, 5, 8 - 3},     // ⌈10/10⌉ = 1; (5+6)/2 truncates to 5
		{11, 1, 6, 9 - 3},     // ⌈11/10⌉ = 2: (1+2)/2 truncates to 1
		{100, 5, 50, 75 - 25}, // mean of 1..10 = 5 (truncated)
	} {
		xs := ramp(tc.n)
		if got := fastDecileMean(xs); got != tc.fast {
			t.Errorf("n=%d: fastDecileMean = %d, want %d", tc.n, got, tc.fast)
		}
		if got := median(xs); got != tc.median {
			t.Errorf("n=%d: median = %d, want %d", tc.n, got, tc.median)
		}
		if got := quartileSpread(xs); got != tc.spread {
			t.Errorf("n=%d: quartileSpread = %d, want %d", tc.n, got, tc.spread)
		}
	}
	if got := fastDecileMean([]time.Duration{10, 20, 900, 900, 900, 900, 900, 900, 900, 900, 900}); got != 15 {
		t.Errorf("fastDecileMean of 11 samples = %d, want the mean of the two smallest, 15", got)
	}
}

// TestMeasureExcludesWarmUp pins the one method's warm-up: a workload
// that is slow only on its first call must report a fast-decile mean
// and a median that both exclude that call. The budget is smaller than
// the slow call, so a method that timed it would stop right there with
// that one sample.
func TestMeasureExcludesWarmUp(t *testing.T) {
	const slow = 60 * time.Millisecond
	calls := 0
	w := Workload{Artifact: "test", App: "warm", Impl: "x", Graph: "y", Run: func(*obs.Recorder) Result {
		if calls++; calls == 1 {
			time.Sleep(slow)
		}
		return Result{N: 1, Rounds: 1}
	}}
	e := measure(w, 1, slow/2)
	if e.Samples != samples || calls != samples+2 {
		t.Fatalf("samples = %d over %d calls, want %d samples plus one warm-up and one instrumented run", e.Samples, calls, samples)
	}
	if fast, med := time.Duration(e.NsFast), time.Duration(e.NsMedian); fast >= slow/2 || med >= slow/2 {
		t.Fatalf("fast-decile mean %v / median %v include the %v first call", fast, med, slow)
	}
}

// TestMeasureStopsAtBudget: an entry that exhausts its time budget is
// cut short and says how many samples it got.
func TestMeasureStopsAtBudget(t *testing.T) {
	w := Workload{Run: func(*obs.Recorder) Result {
		time.Sleep(5 * time.Millisecond)
		return Result{}
	}}
	if e := measure(w, 1, 12*time.Millisecond); e.Samples < 1 || e.Samples > 3 {
		t.Fatalf("samples = %d, want 1..3 under a 12ms budget at 5ms per run", e.Samples)
	}
}

// TestWorkloadsStableAndUnique: the registry is a slice, so two calls
// give the same keys in the same order, no key repeats, and every
// artifact -print accepts selects at least one entry.
func TestWorkloadsStableAndUnique(t *testing.T) {
	for _, smoke := range []bool{true, false} {
		a, b := Workloads(smoke), Workloads(smoke)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("smoke=%v: %d vs %d workloads", smoke, len(a), len(b))
		}
		seen := map[string]bool{}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Fatalf("smoke=%v: entry %d is %s in one call and %s in the next", smoke, i, a[i].Key(), b[i].Key())
			}
			if seen[a[i].Key()] {
				t.Errorf("smoke=%v: key %s repeats", smoke, a[i].Key())
			}
			seen[a[i].Key()] = true
		}
	}
	empty := &Report{Smoke: true}
	for _, id := range Artifacts() {
		if err := Print(new(bytes.Buffer), id, empty, empty); err != nil {
			t.Errorf("artifact %s: %v", id, err)
		}
	}
	if err := Print(new(bytes.Buffer), "table9", empty, empty); err == nil || !strings.Contains(err.Error(), "unknown artifact") {
		t.Errorf("unknown artifact accepted: %v", err)
	}
}

// TestGraphsInventory: the one inventory is Table 2's five undirected
// stand-ins, all non-empty, plus the set-cover instance.
func TestGraphsInventory(t *testing.T) {
	ins, cover := inputs(true)
	if len(ins) != 5 {
		t.Fatalf("inventory size %d", len(ins))
	}
	names := map[string]bool{}
	for _, in := range ins {
		names[in.name] = true
		g := in.g()
		if g.NumVertices() == 0 || g.NumEdges() == 0 || !g.Symmetric() {
			t.Fatalf("%s: n=%d m=%d symmetric=%v", in.name, g.NumVertices(), g.NumEdges(), g.Symmetric())
		}
		if !in.wlog().Weighted() || !in.wheavy().Weighted() || in.role == "" {
			t.Fatalf("%s: weighted forms or role missing", in.name)
		}
	}
	for _, name := range scaling {
		if !names[name] {
			t.Fatalf("scaling graph %s is not in the inventory", name)
		}
	}
	if inst := cover(); inst.Sets == 0 || inst.Graph.NumEdges() == 0 {
		t.Fatal("empty set-cover instance")
	}
}

// TestEveryWorkloadRunsAtSmokeScale runs every registry entry once at
// P ∈ {1, 2} with a recorder — the end-to-end check that every row of
// every table can be regenerated — and holds the answers to what the
// paper-claims column of EXPERIMENTS.md relies on.
func TestEveryWorkloadRunsAtSmokeScale(t *testing.T) {
	ws := Workloads(true)
	forEachProcs([]int{1, 2}, func(p int) {
		answers, vertices := map[string]map[string]int64{}, map[string]int{}
		for _, w := range ws {
			if testing.Short() && w.Impl == "nB1048576" {
				continue // half a second a run; ×10 under -race
			}
			rec := obs.NewRecorder()
			res := w.Run(rec)
			if vertices[w.Key()] = res.N; res.N <= 0 {
				t.Errorf("%s procs=%d: n = %d", w.Key(), p, res.N)
			}
			if returned := rec.Counter(obs.CtrBucketReturned.Name()); returned > 0 && res.Rounds <= 0 {
				t.Errorf("%s procs=%d: extracted %d buckets but reports %d rounds", w.Key(), p, returned, res.Rounds)
			}
			// A julienne row's rounds all go through bucket.Loop, which
			// records each one: the round contract (DESIGN.md §8).
			if recorded := int64(rec.NumRounds()); w.Impl == "julienne" && recorded != res.Rounds {
				t.Errorf("%s procs=%d: reports %d rounds, recorder holds %d", w.Key(), p, res.Rounds, recorded)
			}
			if res.Answer != nil {
				if answers[w.Key()] = res.Answer(); len(answers[w.Key()]) == 0 {
					t.Errorf("%s procs=%d: empty answer", w.Key(), p)
				}
			}
		}
		same := func(field string, keys ...string) {
			for _, k := range keys[1:] {
				if answers[k][field] != answers[keys[0]][field] {
					t.Errorf("procs=%d: %s: %s has %d, %s has %d", p, field, keys[0], answers[keys[0]][field], k, answers[k][field])
				}
			}
		}
		for _, w := range ws {
			if w.Artifact != "table3" || w.Impl != "julienne" {
				continue
			}
			key := func(impl string) string {
				return Workload{Artifact: "table3", App: w.App, Impl: impl, Graph: w.Graph}.Key()
			}
			switch w.App {
			case "kcore":
				if got := answers[w.Key()]["vertices_scanned"]; got != int64(vertices[w.Key()]) {
					t.Errorf("procs=%d: %s scanned %d vertices, want each exactly once", p, w.Key(), got)
				}
				same("kmax", w.Key(), key("ligra"), key("bz-seq"))
			case "wbfs", "delta":
				same("dist_sum", w.Key(), key("bellman-ford"), key("gap-bins"), key("dijkstra-seq"))
				same("reached", w.Key(), key("bellman-ford"), key("gap-bins"), key("dijkstra-seq"))
			case "setcover":
				same("cover_size", w.Key(), key("pbbs"))
			}
		}
		same("kmax", "table3/kcore/julienne/rmat", "ablation/kcore/compressed/rmat", "ablation/kcore/nB16/rmat")
	})
}

func TestProcsList(t *testing.T) {
	ps := procsList()
	if len(ps) == 0 || ps[0] != 1 {
		t.Fatalf("procsList = %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			t.Fatalf("not increasing: %v", ps)
		}
	}
}

func TestForEachProcsRestoresProcs(t *testing.T) {
	before := parallel.Procs()
	var seen []int
	forEachProcs([]int{1, 2, 1}, func(p int) {
		if parallel.Procs() != p {
			t.Errorf("f(%d) ran at GOMAXPROCS %d", p, parallel.Procs())
		}
		seen = append(seen, p)
	})
	if parallel.Procs() != before {
		t.Fatalf("GOMAXPROCS not restored: %d vs %d", parallel.Procs(), before)
	}
	if fmt.Sprint(seen) != "[1 2 1]" {
		t.Fatalf("visited %v", seen)
	}
}

func TestForEachProcsRestoresProcsOnPanic(t *testing.T) {
	before := parallel.Procs()
	func() {
		defer func() { recover() }()
		forEachProcs([]int{before + 1}, func(int) { panic("boom") })
	}()
	if parallel.Procs() != before {
		t.Fatalf("GOMAXPROCS not restored after panic: %d vs %d", parallel.Procs(), before)
	}
}

// The §3.4 protocol is deterministic per seed.
func TestFig1DeterministicPerSeed(t *testing.T) {
	a, b := simulate(10000, 256, 42, nil), simulate(10000, 256, 42, nil)
	if a != b || a.BucketsReturned == 0 || a.Throughput() == 0 {
		t.Fatalf("nondeterministic or degenerate: %+v vs %+v", a, b)
	}
}

// More initial buckets spread the same identifiers over more rounds.
func TestFig1MoreBucketsMeansFewerPerRound(t *testing.T) {
	perRound := func(st bucket.Stats) float64 { return float64(st.Throughput()) / float64(st.BucketsReturned) }
	small, large := perRound(simulate(50000, 128, 7, nil)), perRound(simulate(50000, 1024, 7, nil))
	if large >= small {
		t.Fatalf("avg/round should shrink with more buckets: %v vs %v", large, small)
	}
}

func TestSummarize(t *testing.T) {
	peak, half, below := summarize([]point{{10, 100}, {1000, 1000}, {100, 600}})
	if peak != 1000 || below {
		t.Fatalf("peak=%v", peak)
	}
	// half = 500, crossed between (10,100) and (100,600):
	// frac = 400/500 = 0.8 -> 10 + 0.8*90 = 82.
	if half < 81.9 || half > 82.1 {
		t.Fatalf("half length %v want ~82", half)
	}
	if peak, _, _ := summarize(nil); peak != 0 {
		t.Fatal("empty summarize")
	}
	// Every point above half peak -> below the smallest point, 1.
	if _, half, below := summarize([]point{{2, 1000}, {1, 900}}); !below || half != 1 {
		t.Fatalf("flat half length %v, below=%t; want below the smallest point, 1", half, below)
	}
}

// fakeReports fills both reports with one synthetic entry per registry
// workload and procs point, numbers derived from the entry's position.
func fakeReports() (bucketRep, algosRep *Report) {
	bucketRep, algosRep = &Report{Kind: "bucket", Smoke: true, Seed: seed}, &Report{Kind: "algos", Smoke: true, Seed: seed}
	for _, p := range []int{1, 2} {
		for i, w := range Workloads(true) {
			v := int64(1000 + 10*i + p)
			e := Entry{Artifact: w.Artifact, App: w.App, Impl: w.Impl, Graph: w.Graph, Procs: p,
				N: 64 + i, M: 4 * v, Rounds: v / 10, Samples: samples,
				NsFast: 1000 * v, NsMedian: 1100 * v, NsIQR: 50 * v, BytesPerOp: 8 * v, AllocsPerOp: v,
				Answer: map[string]int64{"kmax": v, "vertices_scanned": 2 * v, "edges_traversed": 3 * v,
					"sets_inspected": 4 * v, "csr_bytes": 8 * v, "compressed_bytes": 2 * v},
				Counters: map[string]int64{obs.CtrBucketReturned.Name(): v / 10, obs.CtrBucketExtracted.Name(): 5 * v,
					obs.CtrBucketMoved.Name(): 2 * v},
			}
			rep := algosRep
			if inBucketFile(w) {
				rep = bucketRep
			}
			rep.Results = append(rep.Results, e)
		}
	}
	return bucketRep, algosRep
}

func render(t *testing.T, id string, bucketRep, algosRep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Print(&buf, id, bucketRep, algosRep); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

// TestPrintRendersEveryArtifact: -print is a pure function of its
// input — the same reports twice give identical bytes, a full report
// leaves no cell empty, and every artifact names the rows it is for.
func TestPrintRendersEveryArtifact(t *testing.T) {
	bucketRep, algosRep := fakeReports()
	for id, want := range map[string][]string{
		"table1":    {"Table 1", "kcore", "wbfs", "setcover", "vertices_scanned", "baseline/julienne"},
		"table2":    {"Table 2", "rmat", "road", "rho", "kmax", "Twitter-Sym"},
		"table3":    {"graph rmat-dense", "graph setcover", "bz-seq", "gap-bins", "T(2)", "speedup"},
		"fig1":      {"128 buckets", "1024 buckets", "kcore", "wbfs", "setcover", "half-performance length"},
		"fig2":      {"Figure 2", "ligra", "powerlaw"},
		"fig3":      {"Figure 3", "gap-bins", "bellman-ford", "road"},
		"fig4":      {"Figure 4", "gap-bins", "bellman-ford", "road"},
		"fig5":      {"Figure 5", "pbbs"},
		"ablation":  {"open-range size", "128 (default)", "1048576", "CSR vs. Ligra+"},
		"extension": {"densest", "kcore"},
		"bucket":    {"update-histogram", "new-and-drain"},
	} {
		t.Run(id, func(t *testing.T) {
			out := render(t, id, bucketRep, algosRep)
			if out != render(t, id, bucketRep, algosRep) {
				t.Fatal("two renderings of the same reports differ")
			}
			for _, s := range want {
				if !strings.Contains(out, s) {
					t.Errorf("missing %q in:\n%s", s, out)
				}
			}
			for _, line := range strings.Split(out, "\n") {
				fields := strings.Fields(line)
				if len(fields) > 1 && fields[0] != "-" && strings.Contains(" "+strings.Join(fields[1:], " ")+" ", " - ") {
					t.Errorf("empty cell in a full report: %q", line)
				}
			}
		})
	}
	if len(Artifacts()) != 11 {
		t.Errorf("Artifacts() = %v; extend the table above", Artifacts())
	}
}

// TestPrintMissingEntry: a report with one entry removed prints "-" in
// that cell instead of panicking, and the row stays where it was.
// TestTable2RhoIsLigraRounds: Table 2's ρ column is the P=1 rounds of
// the table3/kcore/ligra row of each graph, which peels one step per
// round, not the bucketed row's, which peels a level per round.
func TestTable2RhoIsLigraRounds(t *testing.T) {
	bucketRep, algosRep := fakeReports()
	rho := map[string]int64{}
	for _, e := range algosRep.Results {
		if e.Artifact == "table3" && e.App == "kcore" && e.Impl == "ligra" && e.Procs == 1 {
			rho[e.Graph] = e.Rounds
		}
	}
	rows := 0
	for _, line := range strings.Split(render(t, "table2", bucketRep, algosRep), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		want, ok := rho[f[0]]
		if !ok {
			continue
		}
		rows++
		if got := f[len(f)-2]; got != strconv.FormatInt(want, 10) {
			t.Errorf("%s: rho %s, want the ligra row's P=1 rounds %d", f[0], got, want)
		}
	}
	if rows == 0 || rows != len(rho) {
		t.Fatalf("table2 has %d rows for %d ligra k-core rows", rows, len(rho))
	}
}

func TestPrintMissingEntry(t *testing.T) {
	bucketRep, algosRep := fakeReports()
	full := render(t, "table3", bucketRep, algosRep)
	for i, e := range algosRep.Results {
		if e.Key() == "table3/kcore/ligra/rmat" && e.Procs == 2 {
			algosRep.Results = append(algosRep.Results[:i:i], algosRep.Results[i+1:]...)
			break
		}
	}
	cut := render(t, "table3", bucketRep, algosRep)
	fullLines, cutLines := strings.Split(full, "\n"), strings.Split(cut, "\n")
	if len(fullLines) != len(cutLines) {
		t.Fatalf("row count changed: %d vs %d lines", len(fullLines), len(cutLines))
	}
	differing := 0
	for i := range fullLines {
		if strings.Join(strings.Fields(fullLines[i]), " ") == strings.Join(strings.Fields(cutLines[i]), " ") {
			continue
		}
		differing++
		if f := strings.Fields(cutLines[i]); len(f) < 8 || f[1] != "ligra" || f[2] != "rmat" || f[4] != "-" || f[7] != "-" {
			t.Errorf("line %d: want the ligra/rmat row with - for T(2) and speedup, got %q", i, cutLines[i])
		}
	}
	if differing != 1 {
		t.Fatalf("%d lines differ, want exactly the row of the removed entry", differing)
	}
	// Empty reports render every artifact as dashes.
	for _, id := range Artifacts() {
		if !strings.Contains(render(t, id, &Report{Smoke: true}, &Report{Smoke: true}), "-") {
			t.Errorf("%s: empty reports rendered without dashes", id)
		}
	}
}

// TestCheck: a report passes against itself and against a copy whose
// wall-time fields are 10x off; editing a counter, rounds, an answer or
// allocs_per_op beyond tolerance fails naming the entry and the field.
func TestCheck(t *testing.T) {
	_, committed := fakeReports()
	fresh := func() *Report {
		_, rep := fakeReports()
		return rep
	}
	if err := Check(fresh(), committed); err != nil {
		t.Fatalf("report against itself: %v", err)
	}
	slow := fresh()
	for i := range slow.Results {
		e := &slow.Results[i]
		e.NsFast, e.NsMedian, e.NsIQR = 10*e.NsFast, 10*e.NsMedian, 10*e.NsIQR
		e.AllocsPerOp += e.AllocsPerOp / 100 // inside the tolerance
	}
	slow.HostProbeMs = [2]float64{50, 60}
	if err := Check(slow, committed); err != nil {
		t.Fatalf("10x wall time and +1%% allocations must pass: %v", err)
	}

	const key = "table3/kcore/julienne/rmat"
	find := func(rep *Report, procs int) *Entry {
		for i := range rep.Results {
			if e := &rep.Results[i]; e.Key() == key && e.Procs == procs {
				return e
			}
		}
		t.Fatalf("no %s entry", key)
		return nil
	}
	for _, tc := range []struct {
		name string
		edit func(rep *Report)
		want string
	}{
		{"counter", func(rep *Report) { find(rep, 1).Counters[obs.CtrBucketMoved.Name()]++ }, "counters.bucket.moved"},
		{"new counter", func(rep *Report) { find(rep, 1).Counters["edgemap.dense"] = 3 }, "counters.edgemap.dense = 3, committed 0"},
		{"rounds", func(rep *Report) { find(rep, 1).Rounds++ }, "rounds"},
		{"answer", func(rep *Report) { find(rep, 1).Answer["kmax"]-- }, "answer.kmax"},
		{"m", func(rep *Report) { find(rep, 1).M++ }, ": m ="},
		{"allocs", func(rep *Report) { e := find(rep, 1); e.AllocsPerOp += e.AllocsPerOp/5 + 2*allocSlack }, "allocs_per_op"},
		{"entry gone", func(rep *Report) { *find(rep, 1) = Entry{Artifact: "x", Procs: 1} }, "in the fresh run: false"},
	} {
		rep := fresh()
		tc.edit(rep)
		err := Check(rep, committed)
		if err == nil || !strings.Contains(err.Error(), key) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s and %q", tc.name, err, key, tc.want)
		}
	}
	// procs > 1 rows are scheduling-dependent and not compared.
	rep := fresh()
	find(rep, 2).Rounds++
	find(rep, 2).Counters[obs.CtrBucketMoved.Name()]++
	if err := Check(rep, committed); err != nil {
		t.Errorf("procs=2 difference must not fail the check: %v", err)
	}
	full := fresh()
	full.Smoke = false
	if err := Check(full, committed); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Errorf("smoke against full-scale: err = %v", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bucketRep, algosRep := fakeReports()
	perRound := 0.25
	algosRep.Results[0].ForksPerRound = &perRound
	algosRep.HostProbeMs = [2]float64{5.5, 6.5}
	if err := WriteReports(dir, bucketRep, algosRep); err != nil {
		t.Fatal(err)
	}
	backBucket, backAlgos, err := ReadReports(dir)
	if err != nil {
		t.Fatal(err)
	}
	if backBucket.Kind != "bucket" || backAlgos.Kind != "algos" || len(backAlgos.Results) != len(algosRep.Results) ||
		backAlgos.HostProbeMs != algosRep.HostProbeMs {
		t.Fatalf("round-trip lost header fields: %+v", backAlgos)
	}
	if err := Check(backAlgos, algosRep); err != nil {
		t.Fatalf("round-trip changed a checked field: %v", err)
	}
	if e := backAlgos.Results[0]; e.ForksPerRound == nil || *e.ForksPerRound != perRound || e.NsFast != algosRep.Results[0].NsFast {
		t.Fatalf("round-trip lost entry fields: %+v", e)
	}
	if _, _, err := ReadReports(t.TempDir()); err == nil {
		t.Fatal("reading a directory without reports succeeded")
	}
}

// TestCheckForkBudget exercises the fork-budget gate of cmd/bench
// -check on synthetic reports.
func TestCheckForkBudget(t *testing.T) {
	entry := func(app, graph string, procs int, perRound float64) Entry {
		return Entry{Artifact: "table3", App: app, Impl: "julienne", Graph: graph, Procs: procs, Rounds: 1000, ForksPerRound: &perRound}
	}
	good := &Report{Results: []Entry{
		entry("wbfs", "road", 1, 0), entry("wbfs", "road", 2, 0.01),
		entry("wbfs", "rmat", 2, 3), entry("kcore", "road", 2, 1), // not the gated rows
	}}
	if checked, err := CheckForkBudget(good); err != nil || checked != 1 {
		t.Fatalf("good report: checked %d, err %v; want 1, nil", checked, err)
	}
	if checked, err := CheckForkBudget(&Report{Results: []Entry{entry("wbfs", "road", 1, 0)}}); err != nil || checked != 0 {
		t.Errorf("single-CPU report: checked %d, err %v; want 0, nil", checked, err)
	}
	for _, tc := range []struct {
		name string
		rep  *Report
		want string
	}{
		{"a fork per round", &Report{Results: []Entry{entry("wbfs", "road", 2, 1.2)}}, "forked 1.200 times per round"},
		{"counter missing", &Report{Results: []Entry{{Artifact: "table3", App: "wbfs", Impl: "julienne", Graph: "road", Procs: 2}}}, "no parallel.forked counter"},
	} {
		if _, err := CheckForkBudget(tc.rep); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
