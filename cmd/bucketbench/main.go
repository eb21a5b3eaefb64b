// Command bucketbench runs the §3.4 bucket-structure microbenchmark
// and prints the Figure 1 series: throughput (identifiers/second)
// against average identifiers per round, for a sweep of bucket counts
// and identifier counts.
//
// Usage:
//
//	bucketbench [-buckets 128,256,512,1024] [-ids 1024,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"julienne/internal/harness"
	"julienne/internal/microbench"
)

func parseList(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad list element %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	bucketsFlag := flag.String("buckets", "128,256,512,1024", "bucket counts to sweep")
	idsFlag := flag.String("ids", "1024,8192,65536,524288", "identifier counts to sweep")
	seed := flag.Uint64("seed", 2017, "workload seed")
	flag.Parse()

	bucketCounts, err := parseList(*bucketsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	idCounts, err := parseList(*idsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	t := harness.NewTable("buckets", "identifiers", "rounds", "avg ids/round", "throughput ids/s", "time")
	var pts []microbench.Point
	for _, b := range bucketCounts {
		for _, n := range idCounts {
			p := microbench.Run(microbench.Config{Identifiers: n, Buckets: b, Seed: *seed})
			pts = append(pts, p)
			t.AddRow(b, n, p.Rounds, p.AvgPerRound, p.Throughput, p.Elapsed)
		}
	}
	t.Render(os.Stdout)
	sum := microbench.Summarize(pts)
	fmt.Printf("\npeak throughput: %.3g ids/s; half-performance length: %.3g ids/round\n",
		sum.PeakThroughput, sum.HalfLength)
}
