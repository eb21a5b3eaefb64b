// Command sssp solves single-source shortest paths with any of the
// implementations in this repository.
//
// Usage:
//
//	sssp [-algo wbfs|delta|gap-bins|bellman-ford|dijkstra]
//	     [-src V] [-delta D] [-fuse-frontier F] [-fuse-span S] [graph flags]
//	     [-trace out.json] [-stats] [-pprof :6060]
//
// Unweighted inputs get the paper's wBFS weighting ([1, log n)) unless
// -weights overrides it.
package main

import (
	"flag"
	"fmt"
	"os"

	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/cli"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/harness"
)

func main() {
	algo := flag.String("algo", "delta", "algorithm: wbfs|delta|gap-bins|bellman-ford|dijkstra")
	src := flag.Uint("src", 0, "source vertex")
	delta := flag.Int64("delta", 32768, "delta parameter (delta-stepping variants)")
	fuseFrontier := flag.Int("fuse-frontier", 0, "bucket fusion: fuse consecutive buckets while the combined frontier stays at or under this size (wbfs/delta; 0 = fusion off)")
	fuseSpan := flag.Int("fuse-span", 0, "bucket fusion: cap the fused run at this many consecutive bucket ids (0 = unbounded; only meaningful with -fuse-frontier)")
	timeout := flag.Duration("timeout", 0, "stop the run after this long, exit 3 with partial stats (bucketed algos; 0 = no limit)")
	gf := cli.Register(flag.CommandLine)
	of := cli.RegisterObs(flag.CommandLine)
	flag.Parse()
	defer of.CrashDump()

	g, err := gf.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !g.Weighted() {
		g = gen.LogWeights(g, *gf.Seed+1)
	}
	fmt.Println(cli.Describe(g))

	rec := of.Recorder()
	opt := sssp.Options{
		Recorder: rec,
		Deadline: harness.DeadlineIn(*timeout),
		Fusion:   bucket.Fusion{MaxFrontier: *fuseFrontier, MaxSpan: *fuseSpan},
	}
	var res sssp.Result
	s := graph.Vertex(*src)
	elapsed := harness.Time(func() {
		switch *algo {
		case "wbfs":
			res = sssp.WBFS(g, s, opt)
		case "delta":
			res = sssp.DeltaStepping(g, s, *delta, opt)
		case "gap-bins":
			res = sssp.DeltaSteppingBins(g, s, *delta)
		case "bellman-ford":
			res = sssp.BellmanFord(g, s)
		case "dijkstra":
			res = sssp.DijkstraHeap(g, s)
		default:
			fmt.Fprintf(os.Stderr, "unknown -algo %q\n", *algo)
			os.Exit(2)
		}
	})

	of.ObserveOp(elapsed)
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, res.Err)
		of.PrintCanceled(os.Stderr, res.Err)
		fmt.Printf("algo=%s src=%d PARTIAL rounds=%d relaxations=%d edges=%d\n",
			*algo, s, res.Rounds, res.Relaxations, res.EdgesTraversed)
		os.Exit(3)
	}

	reached, maxDist, sum := 0, int64(0), int64(0)
	for _, d := range res.Dist {
		if d == sssp.Unreachable {
			continue
		}
		reached++
		sum += d
		if d > maxDist {
			maxDist = d
		}
	}
	fmt.Printf("algo=%s src=%d time=%v rounds=%d relaxations=%d\n",
		*algo, s, elapsed, res.Rounds, res.Relaxations)
	fmt.Printf("reached=%d/%d max_dist=%d avg_dist=%.1f\n",
		reached, len(res.Dist), maxDist, float64(sum)/float64(max(reached, 1)))

	if err := of.Finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	of.Wait()
}
