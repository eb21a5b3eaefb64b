// Command bench is the repository's one measuring command:
//
//	bench [-smoke] [-dir d]              measure, write d/BENCH_*.json
//	bench [-smoke] [-dir d] -check [c]   measure, then gate the run
//	bench [-dir d] -print <artifact>     render a table from d/BENCH_*.json
//
// A run measures every workload of the internal/bench registry — the
// paper's Table 3 rows on the five Table 2 stand-ins, the §3.4
// microbenchmark of Figure 1, the ablations, the extensions and the
// bucket structure's two hot paths — at GOMAXPROCS ∈ {1, NumCPU} by
// one method (one warm-up, 20 timed samples, fast-decile mean, median
// and quartile spread; DESIGN.md §7) and writes BENCH_bucket.json and
// BENCH_algos.json into -dir. -smoke shrinks the inputs to CI size.
//
// -print measures nothing: it renders table1|table2|table3|fig1..fig5|
// ablation|extension|bucket from the report files, which is how
// EXPERIMENTS.md is regenerated from what is committed.
//
// -check gates the fresh run on counters, never on wall time: the fork
// budget (wbfs on the road graph forks in at most 5 % of its rounds at
// procs > 1), and, when a
// directory c is given, the fresh run against c/BENCH_*.json — at
// procs = 1 every n, m, rounds, obs counter and answer counter exactly
// and allocs_per_op within tolerance. A check never overwrites the
// reports it checks against: with c equal to -dir nothing is written.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"julienne/internal/bench"
)

func main() {
	smoke := flag.Bool("smoke", false, "CI-sized inputs")
	dir := flag.String("dir", ".", "directory of BENCH_bucket.json and BENCH_algos.json: written by a run, read by -print")
	artifact := flag.String("print", "", "render one artifact from the reports in -dir without measuring: "+strings.Join(bench.Artifacts(), "|"))
	check := flag.Bool("check", false, "gate the fresh run on the fork-budget rule and, given a directory argument, on the reports committed there (counters and allocations, never wall time)")
	flag.Parse()

	if *artifact != "" {
		bucketRep, algosRep, err := bench.ReadReports(*dir)
		if err == nil {
			err = bench.Print(os.Stdout, *artifact, bucketRep, algosRep)
		}
		exitOn(err)
		return
	}

	var committed [2]*bench.Report
	against := ""
	if *check {
		against = flag.Arg(0)
	}
	if against != "" {
		var err error
		committed[0], committed[1], err = bench.ReadReports(against)
		exitOn(err)
	}
	bucketRep, algosRep := bench.Run(*smoke, os.Stderr)
	if against == "" || filepath.Clean(*dir) != filepath.Clean(against) {
		exitOn(bench.WriteReports(*dir, bucketRep, algosRep))
		fmt.Printf("wrote %s and %s in %s (%d + %d results)\n", bench.BucketFile, bench.AlgosFile, *dir, len(bucketRep.Results), len(algosRep.Results))
	}
	if !*check {
		return
	}
	forks, err := bench.CheckForkBudget(algosRep)
	exitOn(err)
	fmt.Printf("fork budget: %d wbfs/road entries at procs > 1 fork in at most a small fraction of their rounds\n", forks)
	if against != "" {
		exitOn(bench.Check(bucketRep, committed[0]))
		exitOn(bench.Check(algosRep, committed[1]))
		fmt.Printf("check: every procs=1 entry agrees with %s on n, m, rounds, counters and answers; allocs_per_op within tolerance\n", against)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}
