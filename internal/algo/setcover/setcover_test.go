package setcover

import (
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/compress"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// instance builds a tiny hand-checked bipartite instance:
// sets: 0 = {3,4,5}, 1 = {4,5}, 2 = {6}; elements are vertices 3..6.
func tinyInstance() *graph.CSR {
	return graph.FromEdges(7, []graph.Edge{
		{U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5},
		{U: 1, V: 4}, {U: 1, V: 5},
		{U: 2, V: 6},
	}, graph.DefaultBuild)
}

func TestTinyInstanceAllImplementations(t *testing.T) {
	g := tinyInstance()
	for name, f := range map[string]func() Result{
		"approx": func() Result { return Approx(g, 3, Options{}) },
		"pbbs":   func() Result { return ApproxPBBS(g, 3, Options{}) },
		"greedy": func() Result { return Greedy(g, 3) },
	} {
		res := f()
		if err := Validate(g, 3, res.InCover); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Optimal cover is {0, 2}; set 1 is dominated by 0.
		if res.CoverSize != 2 || !res.InCover[0] || !res.InCover[2] || res.InCover[1] {
			t.Fatalf("%s: cover %v (size %d), want {0,2}", name, res.InCover, res.CoverSize)
		}
	}
}

func TestGraphNotMutated(t *testing.T) {
	g := tinyInstance()
	before := g.NumEdges()
	Approx(g, 3, Options{})
	ApproxPBBS(g, 3, Options{})
	if g.NumEdges() != before {
		t.Fatal("input graph was mutated")
	}
	if g.OutDegree(0) != 3 {
		t.Fatal("input degrees changed")
	}
}

func TestEmptyInstance(t *testing.T) {
	g := graph.FromEdges(4, nil, graph.DefaultBuild)
	res := Approx(g, 2, Options{})
	if res.CoverSize != 0 {
		t.Fatalf("empty instance produced cover of size %d", res.CoverSize)
	}
	if err := Validate(g, 2, res.InCover); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSetCoversAll(t *testing.T) {
	// One big set plus many singletons; greedy and approx should both
	// pick just the big set.
	var edges []graph.Edge
	for e := 0; e < 20; e++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.Vertex(5 + e)})
	}
	edges = append(edges,
		graph.Edge{U: 1, V: 5}, graph.Edge{U: 2, V: 6},
		graph.Edge{U: 3, V: 7}, graph.Edge{U: 4, V: 8})
	g := graph.FromEdges(25, edges, graph.DefaultBuild)
	for name, res := range map[string]Result{
		"approx": Approx(g, 5, Options{}),
		"pbbs":   ApproxPBBS(g, 5, Options{}),
		"greedy": Greedy(g, 5),
	} {
		if err := Validate(g, 5, res.InCover); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.InCover[0] || res.CoverSize != 1 {
			t.Fatalf("%s: cover %v, want only set 0", name, res.InCover)
		}
	}
}

func TestRandomInstancesValidAndComparable(t *testing.T) {
	for _, tc := range []struct{ sets, elems, avg int }{
		{50, 300, 3},
		{200, 2000, 4},
		{500, 2000, 2},
		{20, 50, 8},
	} {
		inst := gen.SetCover(tc.sets, tc.elems, tc.avg, uint64(tc.sets))
		g := inst.Graph
		greedy := Greedy(g, inst.Sets)
		if err := Validate(g, inst.Sets, greedy.InCover); err != nil {
			t.Fatalf("greedy invalid: %v", err)
		}
		for name, res := range map[string]Result{
			"approx": Approx(g, inst.Sets, Options{}),
			"pbbs":   ApproxPBBS(g, inst.Sets, Options{}),
		} {
			if err := Validate(g, inst.Sets, res.InCover); err != nil {
				t.Fatalf("%s invalid on %+v: %v", name, tc, err)
			}
			// The (1+ε)H_n cover should be within a small constant of
			// exact greedy (both are H_n-flavored); 2x is generous.
			if res.CoverSize > 2*greedy.CoverSize+2 {
				t.Fatalf("%s cover %d vs greedy %d on %+v", name, res.CoverSize, greedy.CoverSize, tc)
			}
			if res.CoverSize == 0 && greedy.CoverSize > 0 {
				t.Fatalf("%s produced empty cover", name)
			}
		}
	}
}

func TestApproxAndPBBSComputeSameCover(t *testing.T) {
	// Both implement the same deterministic algorithm (writeMin ties),
	// so the chosen covers must be identical (§5: "Both implementations
	// compute the same covers").
	inst := gen.SetCover(300, 3000, 4, 99)
	a := Approx(inst.Graph, inst.Sets, Options{})
	p := ApproxPBBS(inst.Graph, inst.Sets, Options{})
	if a.CoverSize != p.CoverSize {
		t.Fatalf("cover sizes differ: %d vs %d", a.CoverSize, p.CoverSize)
	}
	for s := range a.InCover {
		if a.InCover[s] != p.InCover[s] {
			t.Fatalf("covers differ at set %d", s)
		}
	}
}

// TestExactCovers pins both bucketed covers at P=1 to the values they
// had when the MaNIS thresholds were last changed, so a threshold off by
// one bucket fails here rather than only in the bench gate: validity and
// the (1+ε)·H_n bound would both still hold. At the default ε few sets
// contend for an element, so the win threshold shows only at ε = 0.1.
func TestExactCovers(t *testing.T) {
	old := parallel.SetProcs(1)
	defer parallel.SetProcs(old)
	inst := gen.SetCover(400, 4000, 8, 5)
	coarse := Options{Epsilon: 0.1}
	for _, tc := range []struct {
		name                  string
		res                   Result
		size, idSum           int
		rounds, setsInspected int64
	}{
		{"approx", Approx(inst.Graph, inst.Sets, Options{}), 141, 28806, 214, 1458},
		{"pbbs", ApproxPBBS(inst.Graph, inst.Sets, Options{}), 141, 28806, 660, 84244},
		{"approx/eps=0.1", Approx(inst.Graph, inst.Sets, coarse), 141, 28752, 70, 1353},
		{"pbbs/eps=0.1", ApproxPBBS(inst.Graph, inst.Sets, coarse), 141, 28752, 99, 12697},
	} {
		idSum := 0
		for s, in := range tc.res.InCover {
			if in {
				idSum += s
			}
		}
		if tc.res.CoverSize != tc.size || idSum != tc.idSum || tc.res.Rounds != tc.rounds || tc.res.SetsInspected != tc.setsInspected {
			t.Errorf("%s: cover %d (set ids sum to %d), %d rounds, %d sets inspected; want %d (%d), %d, %d",
				tc.name, tc.res.CoverSize, idSum, tc.res.Rounds, tc.res.SetsInspected,
				tc.size, tc.idSum, tc.rounds, tc.setsInspected)
		}
	}
}

func TestBucketConfigurations(t *testing.T) {
	inst := gen.SetCover(200, 1500, 3, 7)
	want := Approx(inst.Graph, inst.Sets, Options{})
	for _, opt := range []Options{
		{Buckets: bucket.Options{OpenBuckets: 2}},
		{Epsilon: 0.1},
		{Epsilon: 0.5},
	} {
		res := Approx(inst.Graph, inst.Sets, opt)
		if err := Validate(inst.Graph, inst.Sets, res.InCover); err != nil {
			t.Fatalf("opt %+v: %v", opt, err)
		}
		if opt.Epsilon == 0 && res.CoverSize != want.CoverSize {
			t.Fatalf("bucket option changed the cover: %d vs %d", res.CoverSize, want.CoverSize)
		}
	}
}

func TestWorkEfficiencyComparison(t *testing.T) {
	// The PBBS variant re-inspects carried sets each round, so on an
	// instance with many rounds its inspections should exceed the
	// bucketed version's.
	inst := gen.SetCover(2000, 20000, 4, 5)
	a := Approx(inst.Graph, inst.Sets, Options{})
	p := ApproxPBBS(inst.Graph, inst.Sets, Options{})
	if p.SetsInspected <= a.SetsInspected {
		t.Logf("note: pbbs=%d approx=%d (instance too easy to separate)", p.SetsInspected, a.SetsInspected)
	}
	if a.SetsInspected == 0 || p.SetsInspected == 0 {
		t.Fatal("inspection counters not populated")
	}
}

func TestBucketizer(t *testing.T) {
	bz := newBucketizer(0.01)
	if bz.bucketOf(0) != bucket.Nil || bz.bucketOf(inCover) != bucket.Nil {
		t.Fatal("sentinels must map to Nil")
	}
	if bz.bucketOf(1) != 0 {
		t.Fatalf("bucketOf(1)=%d", bz.bucketOf(1))
	}
	// Monotone non-decreasing in d.
	prev := bucket.ID(0)
	for d := uint32(1); d < 10000; d++ {
		b := bz.bucketOf(d)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d", d)
		}
		prev = b
	}
}

func TestCeilPow(t *testing.T) {
	if ceilPow(0.01, -1) != 1 || ceilPow(0.01, 0) != 1 {
		t.Fatal("ceilPow base cases")
	}
	if ceilPow(1.0, 3) != 8 {
		t.Fatalf("ceilPow(1,3)=%d want 8", ceilPow(1.0, 3))
	}
}

func TestValidateCatchesBadCover(t *testing.T) {
	g := tinyInstance()
	bad := []bool{false, true, false} // set 1 misses element 3 and 6
	if Validate(g, 3, bad) == nil {
		t.Fatal("Validate accepted an incomplete cover")
	}
}

func TestApproxOnCompressedGraph(t *testing.T) {
	// Set cover over the Ligra+-style compressed representation must
	// produce exactly the cover the CSR run produces (the paper runs
	// set cover on its compressed Hyperlink inputs).
	inst := gen.SetCover(300, 2500, 4, 77)
	want := Approx(inst.Graph, inst.Sets, Options{})
	c := compress.FromCSR(inst.Graph)
	got := ApproxOn(c.Clone(), inst.Sets, Options{})
	if got.CoverSize != want.CoverSize {
		t.Fatalf("cover sizes differ: %d vs %d", got.CoverSize, want.CoverSize)
	}
	for s := range want.InCover {
		if got.InCover[s] != want.InCover[s] {
			t.Fatalf("covers differ at %d", s)
		}
	}
	if err := Validate(inst.Graph, inst.Sets, got.InCover); err != nil {
		t.Fatal(err)
	}
	// PBBS variant too.
	gotP := ApproxPBBSOn(c.Clone(), inst.Sets, Options{})
	if gotP.CoverSize != want.CoverSize {
		t.Fatalf("pbbs-on-compressed cover %d vs %d", gotP.CoverSize, want.CoverSize)
	}
	// Greedy over a compressed graph (read-only path): it reads each
	// element's in-list inside a set's out-list, both decoded here, and
	// must choose the CSR run's sets. Elements in many sets (avgCover 8)
	// are what make the inner read matter.
	dense := gen.SetCover(400, 4000, 8, 5)
	g1 := Greedy(dense.Graph, dense.Sets)
	g2 := Greedy(compress.FromCSR(dense.Graph), dense.Sets)
	if err := Validate(dense.Graph, dense.Sets, g2.InCover); err != nil {
		t.Fatal(err)
	}
	for s := range g1.InCover {
		if g2.InCover[s] != g1.InCover[s] {
			t.Fatalf("greedy covers differ at set %d between compressed and CSR", s)
		}
	}
}

// TestApproxAllocsScaleWithRoundsNotSets pins the allocation shape of a
// whole run at P=1: a MaNIS round's closures and the four destinations
// they fill are built once per run, so what a round still allocates is
// the worker closure inside each of its two plain ligra.EdgeMap calls
// (one object each) and the bucket structure's chunks: 724 objects over
// 148 rounds on this instance, 4,575 (30.9 per round) before the
// destinations. ApproxOn consumes its graph, so the clone
// Approx makes is part of every run.
func TestApproxAllocsScaleWithRoundsNotSets(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if bucket.DebugEnabled {
		t.Skip("julienne_debug bookkeeping allocates by design")
	}
	old := parallel.SetProcs(1)
	defer parallel.SetProcs(old)

	inst := gen.SetCover(1<<14, 1<<17, 4, 5)
	rounds := Approx(inst.Graph, inst.Sets, Options{}).Rounds
	bound := float64(8*rounds + 64)
	if bound >= float64(inst.Sets) {
		t.Fatalf("%d rounds over %d sets: the bound would not notice a per-set allocation", rounds, inst.Sets)
	}
	if allocs := testing.AllocsPerRun(3, func() { Approx(inst.Graph, inst.Sets, Options{}) }); allocs > bound {
		t.Errorf("Approx: %v allocs over %d rounds (%d sets), want ≤ 8·rounds + 64 = %v", allocs, rounds, inst.Sets, bound)
	}
}
