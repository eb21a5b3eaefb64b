package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Interference on a shared box only ever adds time, so the gated
// timings are fast-decile means: the mean of the fastest ⌈n/10⌉
// samples. Medians and tails are printed too, but only as per-layer
// metrics (README.md, "Why these statistics").

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// fastDecileMean is the mean of the smallest ⌈n/10⌉ samples.
func fastDecileMean(xs []float64) float64 {
	s := sorted(xs)
	return mean(s[:(len(s)+9)/10])
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs and the number of
// samples beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0
	}
	// The slack keeps 99.9 % of 10000 at rank 9990: the product is not
	// exact in floating point.
	rank := max(1, int(math.Ceil(p*float64(len(s))/100-1e-9)))
	return s[rank-1], len(s) - rank
}

// hiPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it, and its value. Below twenty
// samples no tail is supported and it returns the median.
func hiPercentile(xs []float64) (pct, value float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if v, beyond := percentile(xs, p); beyond >= 10 {
			return p, v
		}
	}
	return 50, median(xs)
}

// zipfRanks draws count ranks in [0, n) with P(k) ∝ (k+1)^-s from a
// generator seeded with seed alone: the same seed gives the same
// request sequence.
func zipfRanks(seed uint64, s float64, n, count int) []int {
	z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0x7a697066)), s, 1, uint64(n-1))
	ranks := make([]int, count)
	for i := range ranks {
		ranks[i] = int(z.Uint64())
	}
	return ranks
}
