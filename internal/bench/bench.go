// Package bench is the repository's one measuring harness: the only
// package that declares a measured workload (workloads.go, the
// registry), times one (measure.go, the one method) or writes a report.
// cmd/bench runs it; the committed BENCH_bucket.json and
// BENCH_algos.json are its output, and every table and figure in
// EXPERIMENTS.md is a view of those files (print.go). "Before" is the
// previous committed report: check.go compares a fresh run with it on
// counters, never on wall time. DESIGN.md §7 documents the method and
// the schema.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"julienne/internal/parallel"
)

// Entry is one workload measured at one GOMAXPROCS.
type Entry struct {
	Artifact string `json:"artifact"`
	App      string `json:"app"`
	Impl     string `json:"impl"`
	Graph    string `json:"graph"`
	Procs    int    `json:"procs"`
	N        int    `json:"n"`
	M        int64  `json:"m"`
	// Rounds is the number of bucket/peeling rounds one operation
	// executes (0 for comparators without rounds).
	Rounds int64 `json:"rounds"`
	// Samples is how many timed runs the ns_* statistics summarize: 20
	// unless the entry exhausted its time budget first.
	Samples int `json:"samples"`
	// NsFast is the fast-decile mean (the mean of the fastest ⌈n/10⌉
	// samples, the figure the tables print: interference only ever adds
	// time), NsMedian the median and NsIQR the distance between the
	// quartiles, of one operation's wall time.
	NsFast   int64 `json:"ns_fast"`
	NsMedian int64 `json:"ns_median"`
	NsIQR    int64 `json:"ns_iqr"`
	// BytesPerOp/AllocsPerOp are allocator traffic per operation
	// (ReadMemStats deltas over the timed samples).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// ForksPerRound is the instrumented run's fork budget: fork-join
	// regions that went through the helper pool (parallel.forked) per
	// round. Absent for workloads that do not report the counter.
	ForksPerRound *float64 `json:"forks_per_round,omitempty"`
	// Answer is the counters that identify the run's output; Counters
	// is the instrumented run's internal/obs counter snapshot.
	Answer   map[string]int64 `json:"answer,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Key is the entry's workload key (Workload.Key).
func (e *Entry) Key() string {
	return Workload{Artifact: e.Artifact, App: e.App, Impl: e.Impl, Graph: e.Graph}.Key()
}

// at names one measurement: a workload key at a GOMAXPROCS.
func at(key string, procs int) string { return fmt.Sprintf("%s@%d", key, procs) }

// Report is one committed file.
type Report struct {
	Kind      string `json:"kind"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Smoke     bool   `json:"smoke"`
	Seed      uint64 `json:"seed"`
	// HostProbeMs is a fixed memory-bound loop timed before and after
	// the suite: two reports whose probes differ were taken on a host
	// of different speed (benchmark/NOISE.md), not on different code.
	HostProbeMs [2]float64 `json:"host_probe_ms"`
	Results     []Entry    `json:"results"`
}

// The two committed files: the bucket structure on its own (the bucket
// and fig1 artifacts) and everything that runs a kernel.
const (
	BucketFile = "BENCH_bucket.json"
	AlgosFile  = "BENCH_algos.json"
)

func inBucketFile(w Workload) bool { return w.Artifact == "bucket" || w.Artifact == "fig1" }

// Run measures every workload of the registry at GOMAXPROCS 1 and
// NumCPU and returns the two reports. Progress lines go to log.
func Run(smoke bool, log io.Writer) (bucketRep, algosRep *Report) {
	newReport := func(kind string) *Report {
		return &Report{Kind: kind, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Smoke: smoke, Seed: seed}
	}
	bucketRep, algosRep = newReport("bucket"), newReport("algos")

	budget := 5 * time.Second
	if smoke {
		budget = 100 * time.Millisecond
	}
	before := hostProbeMs()
	ws := Workloads(smoke)
	forEachProcs(procsList(), func(p int) {
		for _, w := range ws {
			e := measure(w, p, budget)
			fmt.Fprintf(log, "%-44s procs=%d  %3d samples  %v\n", e.Key(), p, e.Samples, time.Duration(e.NsFast))
			rep := algosRep
			if inBucketFile(w) {
				rep = bucketRep
			}
			rep.Results = append(rep.Results, e)
		}
	})
	bucketRep.HostProbeMs = [2]float64{before, hostProbeMs()}
	algosRep.HostProbeMs = bucketRep.HostProbeMs
	return bucketRep, algosRep
}

// procsList returns the GOMAXPROCS values to measure: 1 and the full
// machine (deduplicated on single-CPU machines).
func procsList() []int {
	if runtime.NumCPU() <= 1 {
		return []int{1}
	}
	return []int{1, runtime.NumCPU()}
}

// forEachProcs calls f at each GOMAXPROCS of ps and restores the
// previous setting when it returns, also when f panics.
func forEachProcs(ps []int, f func(p int)) {
	defer parallel.SetProcs(parallel.SetProcs(0))
	for _, p := range ps {
		parallel.SetProcs(p)
		f(p)
	}
}

// WriteReports writes both files into dir, creating it if needed.
func WriteReports(dir string, bucketRep, algosRep *Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, rep *Report) error {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
	}
	if err := write(BucketFile, bucketRep); err != nil {
		return err
	}
	return write(AlgosFile, algosRep)
}

// ReadReports reads both files from dir.
func ReadReports(dir string) (bucketRep, algosRep *Report, err error) {
	read := func(name string) (*Report, error) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		rep := new(Report)
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(dir, name), err)
		}
		return rep, nil
	}
	if bucketRep, err = read(BucketFile); err != nil {
		return nil, nil, err
	}
	algosRep, err = read(AlgosFile)
	return bucketRep, algosRep, err
}
