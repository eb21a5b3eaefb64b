package oracle

import (
	"fmt"

	"julienne/internal/graph"
)

// GreedySetCover is the exact sequential greedy algorithm in its most
// literal form: every iteration rescans all sets, counts each set's
// uncovered elements, and picks the maximum (ties broken toward the
// lowest set id). H_n-approximate (Johnson). O(rounds · M) — far
// slower than the bucket-queue Greedy in internal/algo/setcover, and
// sharing no machinery with it, which is the point.
//
// The instance convention matches the rest of the repository: vertices
// [0, numSets) are sets, the rest are elements, and directed edges run
// from a set to each element it covers.
func GreedySetCover(g graph.Graph, numSets int) []bool {
	n := g.NumVertices()
	covered := make([]bool, n)
	chosen := make([]bool, numSets)
	var buf graph.AdjBuf
	for {
		best, bestCount := -1, int64(0)
		for s := 0; s < numSets; s++ {
			if chosen[s] {
				continue
			}
			var count int64
			elems, _ := g.OutAdj(graph.Vertex(s), &buf)
			for _, e := range elems {
				if !covered[e] {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = s, count
			}
		}
		if best < 0 {
			return chosen
		}
		chosen[best] = true
		elems, _ := g.OutAdj(graph.Vertex(best), &buf)
		for _, e := range elems {
			covered[e] = true
		}
	}
}

// Harmonic returns H_k = 1 + 1/2 + ... + 1/k (H_0 = 0).
func Harmonic(k int) float64 {
	h := 0.0
	for i := 1; i <= k; i++ {
		h += 1.0 / float64(i)
	}
	return h
}

// CoverSize counts chosen sets.
func CoverSize(inCover []bool) int {
	size := 0
	for _, c := range inCover {
		if c {
			size++
		}
	}
	return size
}

// VerifyCover checks a set-cover solution against the greedy oracle.
// Approximation algorithms do not match the oracle set-for-set, so the
// check is (a) validity — every coverable element is covered — and (b)
// the approximation bound: with OPT the (unknown) optimum,
// greedy ≤ H_d·OPT and the bucketed algorithm ≤ (1+ε)·H_d·OPT where d
// is the largest set size, and OPT is at most either cover's size, so
// the two sizes must agree within a (1+ε)·H_d factor in both
// directions. eps is the ε the solution was computed with.
func VerifyCover(g graph.Graph, numSets int, inCover []bool, eps float64) error {
	n := g.NumVertices()
	if len(inCover) != numSets {
		return fmt.Errorf("setcover: flag slice has length %d, want %d", len(inCover), numSets)
	}
	// Validity, from scratch: mark what the chosen sets cover and
	// compare against what any set could cover.
	covered := make([]bool, n)
	maxSet := 0
	var buf graph.AdjBuf
	for s := 0; s < numSets; s++ {
		deg := g.OutDegree(graph.Vertex(s))
		if deg > maxSet {
			maxSet = deg
		}
		if !inCover[s] {
			continue
		}
		elems, _ := g.OutAdj(graph.Vertex(s), &buf)
		for _, e := range elems {
			covered[e] = true
		}
	}
	for s := 0; s < numSets; s++ {
		elems, _ := g.OutAdj(graph.Vertex(s), &buf)
		for _, e := range elems {
			if !covered[e] {
				return fmt.Errorf("setcover: element %d (coverable via set %d) is uncovered", e, s)
			}
		}
	}

	got := CoverSize(inCover)
	want := CoverSize(GreedySetCover(g, numSets))
	if (got == 0) != (want == 0) {
		return fmt.Errorf("setcover: cover size %d but greedy oracle size %d", got, want)
	}
	factor := (1 + eps) * Harmonic(maxSet)
	if factor < 1 {
		factor = 1
	}
	slack := factor + 1e-9
	if float64(got) > slack*float64(want) {
		return fmt.Errorf("setcover: cover size %d exceeds (1+ε)·H_%d·greedy = %.2f·%d",
			got, maxSet, factor, want)
	}
	if float64(want) > slack*float64(got) {
		return fmt.Errorf("setcover: greedy size %d exceeds (1+ε)·H_%d·cover = %.2f·%d",
			want, maxSet, factor, got)
	}
	return nil
}
