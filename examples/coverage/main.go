// Coverage: sensor-placement planning as approximate set cover. Each
// candidate sensor location (a set) covers the map cells (elements)
// within its range; the goal is to cover every cell with as few
// sensors as possible. This is the bipartite set-cover workload of
// §4.3, built from a geometric instance instead of a random one.
//
// The example compares the bucketed (1+ε)H_n algorithm against the
// carry-over PBBS-style implementation and exact sequential greedy,
// and shows the ε trade-off (coarser buckets → faster, slightly
// larger covers).
//
//	go run ./examples/coverage
package main

import (
	"fmt"
	"log"
	"time"

	"julienne"
)

const (
	gridSide    = 96  // the map is gridSide x gridSide cells
	sensorCount = 900 // candidate sensor locations
	sensorRange = 5   // Chebyshev radius a sensor covers
)

func main() {
	g, numSets := buildInstance()
	fmt.Printf("sensor placement: %d candidate sensors, %d cells, %d coverage pairs\n",
		numSets, g.NumVertices()-numSets, g.NumEdges())

	type outcome struct {
		name  string
		size  int
		time  time.Duration
		valid bool
	}
	var results []outcome
	run := func(name string, f func() julienne.SetCoverResult) {
		start := time.Now()
		res := f()
		elapsed := time.Since(start)
		err := julienne.ValidateCover(g, numSets, res.InCover)
		results = append(results, outcome{name, res.CoverSize, elapsed, err == nil})
		if err != nil {
			log.Fatalf("%s produced an invalid cover: %v", name, err)
		}
	}
	run("julienne (e=0.01)", func() julienne.SetCoverResult {
		return julienne.ApproxSetCover(g, numSets, julienne.SetCoverOptions{Epsilon: 0.01})
	})
	run("julienne (e=0.5)", func() julienne.SetCoverResult {
		return julienne.ApproxSetCover(g, numSets, julienne.SetCoverOptions{Epsilon: 0.5})
	})
	run("pbbs carry-over", func() julienne.SetCoverResult {
		return julienne.SetCoverPBBS(g, numSets, julienne.SetCoverOptions{})
	})
	run("exact greedy (seq)", func() julienne.SetCoverResult {
		return julienne.SetCoverGreedy(g, numSets)
	})

	fmt.Printf("\n%-20s %-10s %-8s %s\n", "algorithm", "sensors", "valid", "time")
	for _, r := range results {
		fmt.Printf("%-20s %-10d %-8v %v\n", r.name, r.size, r.valid,
			r.time.Round(time.Microsecond))
	}
}

// buildInstance lays sensors on a jittered grid and connects each to
// the cells in its range. Sets are vertices [0, sensorCount); cells
// follow.
func buildInstance() (*julienne.CSR, int) {
	cells := gridSide * gridSide
	n := sensorCount + cells
	cellID := func(r, c int) julienne.Vertex {
		return julienne.Vertex(sensorCount + r*gridSide + c)
	}
	var edges []julienne.Edge
	// Place sensors deterministically: stride the grid, with a simple
	// hash jitter so ranges overlap irregularly.
	for s := 0; s < sensorCount; s++ {
		base := s * cells / sensorCount
		r := base / gridSide
		c := base % gridSide
		r = (r + s%3) % gridSide
		c = (c + (s*7)%5) % gridSide
		for dr := -sensorRange; dr <= sensorRange; dr++ {
			for dc := -sensorRange; dc <= sensorRange; dc++ {
				rr, cc := r+dr, c+dc
				if rr < 0 || rr >= gridSide || cc < 0 || cc >= gridSide {
					continue
				}
				edges = append(edges, julienne.Edge{U: julienne.Vertex(s), V: cellID(rr, cc)})
			}
		}
	}
	return julienne.FromEdges(n, edges, julienne.DefaultBuild), sensorCount
}
