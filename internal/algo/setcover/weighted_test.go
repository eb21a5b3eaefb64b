package setcover

import (
	"context"
	"errors"
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/obs"
	"julienne/internal/rng"
)

func unitCosts(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = 1
	}
	return c
}

func TestWeightedTinyPrefersCheap(t *testing.T) {
	// Set 0 covers both elements at cost 10; sets 1 and 2 cover one
	// element each at cost 1. Greedy value: set 0 = 0.2/elt-cost vs
	// 1.0 — the cheap pair wins.
	g := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 3}, {U: 0, V: 4},
		{U: 1, V: 3},
		{U: 2, V: 4},
	}, graph.DefaultBuild)
	costs := []float64{10, 1, 1}
	for name, res := range map[string]WeightedResult{
		"approx": ApproxWeighted(g, 3, costs, Options{}),
		"greedy": GreedyWeighted(g, 3, costs),
	} {
		if err := Validate(g, 3, res.InCover); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.InCover[0] || !res.InCover[1] || !res.InCover[2] {
			t.Fatalf("%s: chose %v, want the two cheap sets", name, res.InCover)
		}
		if res.Cost != 2 {
			t.Fatalf("%s: cost %v want 2", name, res.Cost)
		}
	}
}

func TestWeightedTinyPrefersBigWhenCheap(t *testing.T) {
	// Same structure but now the big set is the cheap one.
	g := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 3}, {U: 0, V: 4},
		{U: 1, V: 3},
		{U: 2, V: 4},
	}, graph.DefaultBuild)
	costs := []float64{1, 10, 10}
	res := ApproxWeighted(g, 3, costs, Options{})
	if err := Validate(g, 3, res.InCover); err != nil {
		t.Fatal(err)
	}
	if !res.InCover[0] || res.CoverSize != 1 || res.Cost != 1 {
		t.Fatalf("chose %v (cost %v), want only set 0", res.InCover, res.Cost)
	}
}

func TestWeightedUnitCostsMatchQuality(t *testing.T) {
	// With unit costs the weighted algorithm solves the unweighted
	// problem; its cover must be valid and comparable in size.
	inst := gen.SetCover(200, 1600, 3, 21)
	unweighted := Approx(inst.Graph, inst.Sets, Options{})
	weighted := ApproxWeighted(inst.Graph, inst.Sets, unitCosts(inst.Sets), Options{})
	if err := Validate(inst.Graph, inst.Sets, weighted.InCover); err != nil {
		t.Fatal(err)
	}
	if float64(weighted.CoverSize) > 1.5*float64(unweighted.CoverSize)+2 {
		t.Fatalf("unit-cost weighted cover %d vs unweighted %d",
			weighted.CoverSize, unweighted.CoverSize)
	}
	if weighted.Cost != float64(weighted.CoverSize) {
		t.Fatal("unit costs must sum to cover size")
	}
}

func TestWeightedRandomCostsQuality(t *testing.T) {
	for trial := uint64(0); trial < 3; trial++ {
		inst := gen.SetCover(150, 1200, 3, 31+trial)
		r := rng.New(trial)
		costs := make([]float64, inst.Sets)
		for i := range costs {
			costs[i] = 0.5 + 10*r.Float64()
		}
		greedy := GreedyWeighted(inst.Graph, inst.Sets, costs)
		if err := Validate(inst.Graph, inst.Sets, greedy.InCover); err != nil {
			t.Fatalf("greedy: %v", err)
		}
		for _, opt := range []Options{{}, {Epsilon: 0.1}, {Buckets: bucket.Options{OpenBuckets: 4}}} {
			res := ApproxWeighted(inst.Graph, inst.Sets, costs, opt)
			if err := Validate(inst.Graph, inst.Sets, res.InCover); err != nil {
				t.Fatalf("approx %+v: %v", opt, err)
			}
			// Cost within a small factor of exact greedy.
			if res.Cost > 2.5*greedy.Cost+1 {
				t.Fatalf("approx cost %.1f vs greedy %.1f (opt %+v)",
					res.Cost, greedy.Cost, opt)
			}
		}
	}
}

func TestWeightedExtremeCostSpread(t *testing.T) {
	inst := gen.SetCover(100, 600, 3, 41)
	costs := make([]float64, inst.Sets)
	for i := range costs {
		if i%2 == 0 {
			costs[i] = 1e-3
		} else {
			costs[i] = 1e3
		}
	}
	res := ApproxWeighted(inst.Graph, inst.Sets, costs, Options{})
	if err := Validate(inst.Graph, inst.Sets, res.InCover); err != nil {
		t.Fatal(err)
	}
	greedy := GreedyWeighted(inst.Graph, inst.Sets, costs)
	if res.Cost > 3*greedy.Cost+1 {
		t.Fatalf("cost %.3f vs greedy %.3f", res.Cost, greedy.Cost)
	}
}

func TestWeightedPanics(t *testing.T) {
	g := tinyInstance()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad costs len", func() { ApproxWeighted(g, 3, []float64{1}, Options{}) })
	mustPanic("nonpositive cost", func() { ApproxWeighted(g, 3, []float64{1, 0, 1}, Options{}) })
	mustPanic("greedy bad len", func() { GreedyWeighted(g, 3, nil) })
	mustPanic("greedy nonpositive", func() { GreedyWeighted(g, 3, []float64{1, -1, 1}) })
}

func TestWeightedDeterministic(t *testing.T) {
	inst := gen.SetCover(120, 900, 3, 51)
	costs := make([]float64, inst.Sets)
	for i := range costs {
		costs[i] = 1 + float64(i%7)
	}
	a := ApproxWeighted(inst.Graph, inst.Sets, costs, Options{})
	b := ApproxWeighted(inst.Graph, inst.Sets, costs, Options{})
	if a.Cost != b.Cost || a.CoverSize != b.CoverSize {
		t.Fatal("nondeterministic weighted cover")
	}
	for s := range a.InCover {
		if a.InCover[s] != b.InCover[s] {
			t.Fatal("covers differ")
		}
	}
}

// TestWeightedHonoursCancellation cancels a weighted run from the
// recorder's round observer at round 2: the run stops there with a
// *obs.Canceled whose flight tail holds the completed rounds, and the
// partial cover is still a set of chosen sets.
func TestWeightedHonoursCancellation(t *testing.T) {
	inst := gen.SetCover(400, 4000, 8, 5)
	costs := make([]float64, inst.Sets)
	for i := range costs {
		costs[i] = 1 + float64(i%7)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.NewRecorder()
	rec.OnRound(func(m obs.RoundMetrics) {
		if m.Round == 2 {
			cancel()
		}
	})
	res := ApproxWeighted(inst.Graph, inst.Sets, costs, Options{Recorder: rec, Ctx: ctx})
	var c *obs.Canceled
	if !errors.As(res.Err, &c) {
		t.Fatalf("Err = %v, want *obs.Canceled", res.Err)
	}
	if c.Algo != "setcover" || c.Rounds != 2 || res.Rounds != 2 || len(c.Tail) == 0 {
		t.Errorf("Canceled{%q, Rounds %d, %d tail records} after %d rounds, want setcover stopped at 2 with a tail",
			c.Algo, c.Rounds, len(c.Tail), res.Rounds)
	}
	if res.CoverSize != len(CoverList(res.InCover)) {
		t.Errorf("CoverSize %d disagrees with InCover", res.CoverSize)
	}
}
