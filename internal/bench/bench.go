// Package bench is the reproducible performance baseline behind `make
// bench`: it measures the bucket structure's hot paths and the four
// bucketed applications (k-core, ∆-stepping, wBFS, approximate set
// cover) at GOMAXPROCS ∈ {1, NumCPU}, and emits machine-readable
// reports (BENCH_bucket.json, BENCH_algos.json) with wall-clock and
// allocator figures per operation AND per round, plus the bucket- and
// edge-map-traffic counters from internal/obs.
//
// Every report embeds the pre-arena baseline (the go-test benchmark
// numbers measured immediately before the scratch-arena work landed,
// see baseline.go), and full-budget runs re-measure the same
// benchmarks so the committed files carry a direct before/after
// comparison. DESIGN.md §7 documents how to read the output.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"julienne/internal/harness"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// Config selects the measurement budget.
type Config struct {
	// Smoke shrinks inputs to CI size and skips the slow before/after
	// re-measurement; the numbers still exercise every code path.
	Smoke bool
	// Reps is the timing repetition count for medians (0 = default).
	Reps int
	// Seed makes workloads reproducible (0 = default).
	Seed uint64
	// Live, when non-nil, receives every instrumented run's counters
	// and histograms via Recorder.Merge, so `cmd/bench -http` exposes
	// the whole suite's telemetry on one /metrics endpoint while the
	// per-entry snapshots in the report stay isolated. Nil skips the
	// merge.
	Live *obs.Recorder
}

func (c Config) reps() int {
	if c.Reps >= 1 {
		return c.Reps
	}
	if c.Smoke {
		return 3
	}
	return 5
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 2017 // SPAA '17
	}
	return c.Seed
}

// Entry is one measured workload configuration.
type Entry struct {
	Name   string `json:"name"`
	Family string `json:"family,omitempty"`
	Procs  int    `json:"procs"`
	N      int    `json:"n,omitempty"`
	M      int64  `json:"m,omitempty"`
	// Rounds is the number of bucket/peeling rounds one operation
	// executes; the per-round figures below divide by it.
	Rounds int64 `json:"rounds,omitempty"`
	// NsPerOp is the median wall-clock time of one operation.
	NsPerOp    int64 `json:"ns_per_op"`
	NsPerRound int64 `json:"ns_per_round,omitempty"`
	// BytesPerOp/AllocsPerOp are allocator traffic per operation
	// (ReadMemStats deltas averaged over the measurement runs).
	BytesPerOp    int64 `json:"bytes_per_op"`
	BytesPerRound int64 `json:"bytes_per_round,omitempty"`
	AllocsPerOp   int64 `json:"allocs_per_op"`
	// RoundP50Ns..RoundMaxNs summarize the per-round latency
	// distribution of one instrumented run, from the internal/obs
	// log-bucketed histogram (round.latency_ns where the workload
	// records rounds, else the bucket operation-duration histograms).
	// Quantiles carry the histogram's ~12.5% bucket resolution.
	RoundP50Ns int64 `json:"round_p50_ns,omitempty"`
	RoundP90Ns int64 `json:"round_p90_ns,omitempty"`
	RoundP99Ns int64 `json:"round_p99_ns,omitempty"`
	RoundMaxNs int64 `json:"round_max_ns,omitempty"`
	// ForksPerRound is the instrumented run's fork budget: fork-join
	// regions that went through the helper pool (the parallel.forked
	// counter) per recorded round. Absent for workloads whose rounds do
	// not report it; 0 at procs=1, where nothing forks.
	ForksPerRound *float64 `json:"forks_per_round,omitempty"`
	// Counters is one instrumented run's internal/obs counter snapshot
	// (bucket.* traffic, edgemap.* direction decisions, parallel.* fork
	// budget).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// GoBench is one go-test-style benchmark result, the unit of the
// before/after comparison.
type GoBench struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// Baseline is a pinned set of GoBench numbers from a named commit.
type Baseline struct {
	Commit  string    `json:"commit"`
	Note    string    `json:"note"`
	Entries []GoBench `json:"entries"`
}

// Delta is one before/after row: the current re-measurement of a
// baseline benchmark and the relative change in allocator bytes.
type Delta struct {
	Name           string  `json:"name"`
	Before         GoBench `json:"before"`
	After          GoBench `json:"after"`
	BytesChangePct float64 `json:"bytes_change_pct"`
}

// Report is the serialized output of one suite.
type Report struct {
	Kind      string `json:"kind"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Smoke     bool   `json:"smoke"`
	Seed      uint64 `json:"seed"`
	// Baseline pins the pre-arena numbers this PR is measured against.
	Baseline Baseline `json:"pre_arena_baseline"`
	// Comparison re-measures the baseline benchmarks on the current
	// tree (full-budget runs only).
	Comparison []Delta `json:"comparison,omitempty"`
	Results    []Entry `json:"results"`
}

// Write serializes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func newReport(kind string, cfg Config, base Baseline) *Report {
	return &Report{
		Kind:      kind,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Smoke:     cfg.Smoke,
		Seed:      cfg.seed(),
		Baseline:  base,
	}
}

// procsList returns the GOMAXPROCS values to measure: 1 and the full
// machine (deduplicated on single-CPU machines).
func procsList() []int {
	if runtime.NumCPU() <= 1 {
		return []int{1}
	}
	return []int{1, runtime.NumCPU()}
}

// withProcs runs f at GOMAXPROCS p, restoring the previous value.
func withProcs(p int, f func()) {
	old := parallel.SetProcs(p)
	defer parallel.SetProcs(old)
	f()
}

// measure times and alloc-profiles run (recorder off), then executes
// one instrumented run to capture rounds, obs counters, and the
// round-latency percentiles.
func measure(e Entry, cfg Config, run func(rec *obs.Recorder) int64) Entry {
	sample := harness.TimeMedian(cfg.reps(), func() { run(nil) })
	alloc := harness.MeasureAlloc(cfg.reps(), func() { run(nil) })
	rec := obs.NewRecorder()
	rounds := run(rec)
	e.Rounds = rounds
	e.NsPerOp = sample.Median.Nanoseconds()
	e.BytesPerOp = alloc.BytesPerOp
	e.AllocsPerOp = alloc.AllocsPerOp
	if rounds > 0 {
		e.NsPerRound = e.NsPerOp / rounds
		e.BytesPerRound = e.BytesPerOp / rounds
	}
	e.Counters = rec.Counters()
	if forked, ok := e.Counters[obs.CtrParallelForked.Name()]; ok && rounds > 0 {
		perRound := float64(forked) / float64(rounds)
		e.ForksPerRound = &perRound
	}
	fillRoundPercentiles(&e, rec)
	cfg.Live.Merge(rec)
	return e
}

// fillRoundPercentiles copies the round-latency summary of one
// instrumented run into the entry. Workloads that emit RoundMetrics
// populate round.latency_ns; pure bucket-structure workloads fall back
// to the NextBucket/UpdateBuckets duration histograms.
func fillRoundPercentiles(e *Entry, rec *obs.Recorder) {
	for _, h := range []obs.Hist{obs.HistRoundLatencyNs, obs.HistNextBucketNs, obs.HistUpdateBucketsNs} {
		if s := rec.HistSummary(h.Name()); s.Count > 0 {
			e.RoundP50Ns = s.P50
			e.RoundP90Ns = s.P90
			e.RoundP99Ns = s.P99
			e.RoundMaxNs = s.Max
			return
		}
	}
}

// deltas pairs the baseline entries with fresh re-measurements.
func deltas(base Baseline, current []GoBench) []Delta {
	byName := map[string]GoBench{}
	for _, g := range current {
		byName[g.Name] = g
	}
	var out []Delta
	for _, b := range base.Entries {
		a, ok := byName[b.Name]
		if !ok {
			continue
		}
		pct := 0.0
		if b.BytesPerOp != 0 {
			pct = 100 * float64(a.BytesPerOp-b.BytesPerOp) / float64(b.BytesPerOp)
		}
		out = append(out, Delta{Name: b.Name, Before: b, After: a, BytesChangePct: pct})
	}
	return out
}

// FormatSummary renders a human-readable digest of the comparison for
// terminal output.
func FormatSummary(r *Report) string {
	if len(r.Comparison) == 0 {
		return fmt.Sprintf("%s: %d results (no before/after comparison in this mode)\n", r.Kind, len(r.Results))
	}
	s := fmt.Sprintf("%s: bytes/op vs pre-arena baseline (%s):\n", r.Kind, r.Baseline.Commit)
	for _, d := range r.Comparison {
		s += fmt.Sprintf("  %-36s %12d -> %10d B/op (%+.1f%%)\n",
			d.Name, d.Before.BytesPerOp, d.After.BytesPerOp, d.BytesChangePct)
	}
	return s
}
