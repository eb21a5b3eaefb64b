package main

import (
	"math"
	"slices"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestFastDecileMean(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"one sample", []float64{7}, 7},
		{"ten samples keep one", seq(10), 1},
		{"eleven samples keep two", seq(11), 1.5},
		{"fifty samples keep five", seq(50), 3},
		{"slow outliers are ignored", append(seq(20), 1e6, 1e6), (1 + 2 + 3) / 3.0},
	} {
		if got := fastDecileMean(tc.xs); got != tc.want {
			t.Errorf("%s: fastDecileMean = %v, want %v", tc.name, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	fastDecileMean(xs)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Errorf("fastDecileMean reordered its argument: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{seq(100), 50.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestHiPercentile(t *testing.T) {
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{5, 50, 3},          // no tail is supported
		{19, 50, 10},        // p75 would leave 4 beyond
		{40, 75, 30},        // p75 leaves 10 beyond, p90 only 4
		{100, 90, 90},       // p90 leaves 10, p95 only 5
		{200, 95, 190},      // p95 leaves 10
		{1000, 99, 990},     // p99 leaves 10, p99.9 only 1
		{10000, 99.9, 9990}, // p99.9 leaves 10
	} {
		pct, got := hiPercentile(seq(tc.n))
		if pct != tc.pct || got != tc.want {
			t.Errorf("hiPercentile of 1..%d = p%v %v, want p%v %v", tc.n, pct, got, tc.pct, tc.want)
		}
		if _, beyond := percentile(seq(tc.n), pct); tc.pct != 50 && beyond < 10 {
			t.Errorf("hiPercentile of 1..%d chose p%v with only %d samples beyond it", tc.n, pct, beyond)
		}
	}
}

func TestZipfRanks(t *testing.T) {
	const n, s = 1 << 16, 1.1
	a, b := zipfRanks(2017, s, n, 300), zipfRanks(2017, s, n, 300)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave two different request sequences")
	}
	if slices.Equal(a, zipfRanks(2018, s, n, 300)) {
		t.Error("two seeds gave the same request sequence")
	}

	var top, total float64
	for k := 0; k < n; k++ {
		p := math.Pow(float64(k+1), -s)
		total += p
		if k < 64 {
			top += p
		}
	}
	want := top / total
	const draws = 400000
	hits := 0
	for _, r := range zipfRanks(7, s, n, draws) {
		if r < 0 || r >= n {
			t.Fatalf("rank %d outside [0,%d)", r, n)
		}
		if r < 64 {
			hits++
		}
	}
	if got := float64(hits) / draws; math.Abs(got-want) > 0.01*want {
		t.Errorf("top-64 mass %.4f, analytic %.4f: off by more than 1%%", got, want)
	}
}
