// Roadnet: single-source shortest paths on a high-diameter road-like
// network, the regime where ∆-stepping's bucket structure earns its
// keep (§4.2). The example sweeps ∆ to show the work/parallelism
// trade-off the Meyer–Sanders algorithm exposes — small ∆ approaches
// Dijkstra (many cheap rounds), huge ∆ approaches Bellman-Ford (few
// expensive rounds) — and validates every run against sequential
// Dijkstra.
//
//	go run ./examples/roadnet
package main

import (
	"fmt"
	"log"
	"time"

	"julienne"
)

func main() {
	// A 256x256 mesh with heavy weights plays the road-network role:
	// bounded degree, ~500-hop diameter.
	g := julienne.HeavyWeights(julienne.Grid2D(256, 256), 11)
	fmt.Printf("road network: n=%d m=%d diameter(hops)=%d\n",
		g.NumVertices(), g.NumEdges(), julienne.Eccentricity(g, 0))

	ref := julienne.Dijkstra(g, 0)
	fmt.Printf("sequential Dijkstra: %d reachable\n", count(ref.Dist))

	fmt.Println("\ndelta sweep (bucketed delta-stepping, Algorithm 2):")
	fmt.Printf("%-12s %-10s %-8s %s\n", "delta", "time", "rounds", "relaxations")
	for _, delta := range []int64{1 << 10, 1 << 13, 1 << 15, 1 << 17, 1 << 30} {
		start := time.Now()
		res := julienne.DeltaSteppingFull(g, 0, delta, julienne.BucketOptions{})
		elapsed := time.Since(start)
		check(ref.Dist, res.Dist)
		fmt.Printf("%-12d %-10v %-8d %d\n", delta, elapsed.Round(time.Microsecond),
			res.Rounds, res.Relaxations)
	}

	// The baselines at the paper's tuned delta.
	const delta = 32768
	for name, run := range map[string]func() julienne.SSSPResult{
		"gap-bins (thread-local bins)": func() julienne.SSSPResult {
			return julienne.DeltaSteppingBins(g, 0, delta)
		},
		"bellman-ford": func() julienne.SSSPResult {
			return julienne.BellmanFord(g, 0)
		},
	} {
		start := time.Now()
		res := run()
		check(ref.Dist, res.Dist)
		fmt.Printf("\n%-28s time=%v rounds=%d", name,
			time.Since(start).Round(time.Microsecond), res.Rounds)
	}
	fmt.Println("\n\nall implementations agree with Dijkstra")
}

func count(dist []int64) int {
	n := 0
	for _, d := range dist {
		if d != julienne.UnreachableDist {
			n++
		}
	}
	return n
}

func check(want, got []int64) {
	for v := range want {
		if want[v] != got[v] {
			log.Fatalf("distance mismatch at vertex %d: %d vs %d", v, got[v], want[v])
		}
	}
}
