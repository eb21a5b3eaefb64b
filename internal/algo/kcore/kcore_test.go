package kcore

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

func checkEqual(t *testing.T, name string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", name, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: coreness[%d]=%d want %d", name, v, got[v], want[v])
		}
	}
}

func TestKnownSmallGraphs(t *testing.T) {
	// Triangle with a pendant vertex: triangle has coreness 2, pendant 1.
	tri := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}},
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	want := []uint32{2, 2, 2, 1}
	checkEqual(t, "bucketed", Coreness(tri, Options{}).Coreness, want)
	checkEqual(t, "ligra", CorenessLigra(tri).Coreness, want)
	checkEqual(t, "bz", CorenessBZ(tri), want)
}

func TestCompleteGraph(t *testing.T) {
	k := gen.Complete(8)
	res := Coreness(k, Options{})
	for v, c := range res.Coreness {
		if c != 7 {
			t.Fatalf("K8 coreness[%d]=%d want 7", v, c)
		}
	}
	// K_n peels in one round: all vertices drop together.
	if res.Rounds != 1 {
		t.Fatalf("K8 rounds=%d want 1", res.Rounds)
	}
}

func TestCycleAndPathAndStar(t *testing.T) {
	for v, c := range Coreness(gen.Cycle(20), Options{}).Coreness {
		if c != 2 {
			t.Fatalf("cycle coreness[%d]=%d want 2", v, c)
		}
	}
	for v, c := range Coreness(gen.Path(20), Options{}).Coreness {
		if c != 1 {
			t.Fatalf("path coreness[%d]=%d want 1", v, c)
		}
	}
	star := Coreness(gen.Star(20), Options{}).Coreness
	for v, c := range star {
		if c != 1 {
			t.Fatalf("star coreness[%d]=%d want 1", v, c)
		}
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}},
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	res := Coreness(g, Options{})
	want := []uint32{1, 1, 0, 0, 0}
	checkEqual(t, "isolated", res.Coreness, want)
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil, graph.BuildOptions{Symmetrize: true})
	if res := Coreness(g, Options{}); len(res.Coreness) != 0 {
		t.Fatal("empty graph")
	}
}

func TestPanicsOnDirected(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}}, graph.DefaultBuild)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on directed input")
		}
	}()
	Coreness(g, Options{})
}

// TestAllImplementationsAgree cross-checks the three implementations on
// a spread of random graph families and bucket configurations.
func TestAllImplementationsAgree(t *testing.T) {
	graphs := map[string]graph.Graph{
		"er-sparse": gen.ErdosRenyi(500, 1000, true, 1),
		"er-dense":  gen.ErdosRenyi(300, 9000, true, 2),
		"rmat":      gen.RMAT(1<<10, 8000, true, 3),
		"chunglu":   gen.ChungLu(800, 6000, 2.3, true, 4),
		"grid":      gen.Grid2D(20, 25),
		"regular8":  gen.RandomRegular(600, 8, true, 5),
		"singleton": gen.Star(2),
	}
	for name, g := range graphs {
		want := CorenessBZ(g)
		checkEqual(t, name+"/ligra", CorenessLigra(g).Coreness, want)
		for _, opt := range []Options{
			{},
			{Buckets: bucket.Options{OpenBuckets: 4}},
			{Buckets: bucket.Options{OpenBuckets: 1024}},
		} {
			checkEqual(t, name+"/bucketed", Coreness(g, opt).Coreness, want)
		}
	}
}

func TestWorkEfficiency(t *testing.T) {
	// Table 1's claim made measurable: the bucketed algorithm's scanned
	// vertices are O(n + moves) while the Ligra baseline scans
	// O(k_max * n). On a graph with nontrivial k_max the gap must be
	// large.
	g := gen.RMAT(1<<12, 60000, true, 7)
	eff := Coreness(g, Options{})
	ineff := CorenessLigra(g)
	checkEqual(t, "agree", eff.Coreness, ineff.Coreness)
	kmax := int64(MaxCoreness(eff.Coreness))
	if kmax < 4 {
		t.Skipf("graph too shallow for the comparison (kmax=%d)", kmax)
	}
	if ineff.VerticesScanned < kmax*int64(g.NumVertices()) {
		t.Fatalf("baseline scanned %d vertices, expected >= kmax*n = %d",
			ineff.VerticesScanned, kmax*int64(g.NumVertices()))
	}
	// The bucketed algorithm scans each vertex exactly once, when it is
	// extracted or when a round's local peel takes it, and traverses
	// each vertex's edges once: VerticesScanned == n, EdgesTraversed ==
	// Σdeg.
	if eff.VerticesScanned != int64(g.NumVertices()) {
		t.Fatalf("bucketed scanned %d want n=%d", eff.VerticesScanned, g.NumVertices())
	}
	if eff.EdgesTraversed != g.NumEdges() {
		t.Fatalf("bucketed traversed %d edges want Σdeg=%d", eff.EdgesTraversed, g.NumEdges())
	}
	// Bucket traffic is bounded by 2m + n (each edge causes at most one
	// move request; Lemma 3.2 instantiation in §4.1).
	moves := eff.BucketStats.Moved
	if moves > 2*g.NumEdges()+int64(g.NumVertices()) {
		t.Fatalf("bucket moves %d exceed 2m+n", moves)
	}
}

// TestRhoMatchesRounds pins the round counts against ρ, the peeling
// complexity of §4.1, counted here by a sequential peel that removes,
// each round, every vertex whose remaining degree is at most the current
// core level k (k never decreases). The Ligra baseline spends one round
// per peeling step, so exactly ρ. The bucketed run peels a level to its
// end on the caller while the work stays below the fork cut-off: at P=1
// that is every round, so it takes one round per distinct coreness
// value; at P>1 a round that would fork goes through the bucket
// structure, so the count lies between the two.
func TestRhoMatchesRounds(t *testing.T) {
	rho := func(g graph.Graph) int64 {
		n := g.NumVertices()
		deg := make([]int, n)
		for v := range deg {
			deg[v] = g.OutDegree(graph.Vertex(v))
		}
		removed := make([]bool, n)
		var rounds int64
		k := 0
		for left := n; left > 0; rounds++ {
			lo := n
			for v := range deg {
				if !removed[v] {
					lo = min(lo, deg[v])
				}
			}
			k = max(k, lo)
			var peel []graph.Vertex
			for v := range deg {
				if !removed[v] && deg[v] <= k {
					peel = append(peel, graph.Vertex(v))
				}
			}
			for _, v := range peel {
				removed[v] = true
			}
			for _, v := range peel {
				nbrs, _ := g.OutAdj(v, nil)
				for _, u := range nbrs {
					deg[u]--
				}
			}
			left -= len(peel)
		}
		return rounds
	}
	defer parallel.SetProcs(parallel.SetProcs(1))
	for name, g := range map[string]graph.Graph{
		"rmat": gen.RMAT(1<<10, 8000, true, 11),
		"grid": gen.Grid2D(12, 9),
		"K10":  gen.Complete(10), // one round
	} {
		r := rho(g)
		if got := CorenessLigra(g).Rounds; got != r {
			t.Errorf("%s: ligra %d rounds, ρ = %d", name, got, r)
		}
		parallel.SetProcs(1)
		res := Coreness(g, Options{})
		levels := map[uint32]bool{}
		for _, c := range res.Coreness {
			levels[c] = true
		}
		lv := int64(len(levels))
		if res.Rounds != lv {
			t.Errorf("%s: P=1 %d rounds, %d distinct coreness values", name, res.Rounds, lv)
		}
		for _, p := range []int{2, 4} {
			parallel.SetProcs(p)
			if got := Coreness(g, Options{}).Rounds; got < lv || got > r {
				t.Errorf("%s: P=%d %d rounds, want between %d levels and ρ = %d", name, p, got, lv, r)
			}
		}
	}
}

// TestLocalPeelHandsBackAtCutoff pins the cap on a round's local peel
// on a path, whose ρ is n/2: one level, peeled two vertices per step.
// At P=1 the whole path goes in one round from the two extracted
// endpoints. At P=2 a round stops once the work it has peeled would
// fork and hands the rest of its queue back into the bucket, so no
// round peels much more than one fork's worth of work.
func TestLocalPeelHandsBackAtCutoff(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(1))
	g := gen.Path(1 << 16)
	n := int64(g.NumVertices())
	work := n + g.NumEdges() // Σ(1 + deg)
	for _, p := range []int{1, 2} {
		parallel.SetProcs(p)
		res := Coreness(g, Options{})
		t.Logf("P=%d: %d rounds, %d extracted", p, res.Rounds, res.BucketStats.Extracted)
		for v, c := range res.Coreness {
			if c != 1 {
				t.Fatalf("P=%d: coreness[%d] = %d, want 1", p, v, c)
			}
		}
		switch p {
		case 1:
			if res.Rounds != 1 || res.BucketStats.Extracted != 2 {
				t.Errorf("P=1: %d rounds extracting %d vertices, want 1 round extracting the 2 endpoints",
					res.Rounds, res.BucketStats.Extracted)
			}
		case 2:
			// The smallest work at which a region forks.
			cut := int64(1)
			for parallel.WorkersFor(cut) == 1 {
				cut++
			}
			if res.Rounds < work/cut {
				t.Errorf("P=2: %d rounds, want ≥ Σ(1+deg)/cut-off = %d/%d = %d", res.Rounds, work, cut, work/cut)
			}
		}
	}
}

func TestMaxCoreness(t *testing.T) {
	if MaxCoreness(nil) != 0 {
		t.Fatal("MaxCoreness(nil)")
	}
	if MaxCoreness([]uint32{1, 5, 3}) != 5 {
		t.Fatal("MaxCoreness wrong")
	}
}

func TestDeterministic(t *testing.T) {
	g := gen.RMAT(1<<10, 10000, true, 13)
	a := Coreness(g, Options{})
	bres := Coreness(g, Options{})
	checkEqual(t, "determinism", a.Coreness, bres.Coreness)
	if a.Rounds != bres.Rounds {
		t.Fatal("rounds differ across runs")
	}
}

// TestCanceledCarriesFlightTail pins that a canceled run's error
// embeds the flight-recorder tail: the last rounds completed before
// the cancellation, decoded and attributed to this algorithm.
func TestCanceledCarriesFlightTail(t *testing.T) {
	g := gen.RMAT(1<<11, 1<<14, true, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.NewRecorder()
	const stopAfter = 3
	rec.OnRound(func(m obs.RoundMetrics) {
		if m.Round == stopAfter {
			cancel()
		}
	})
	res := Coreness(g, Options{Recorder: rec, Ctx: ctx})
	var c *obs.Canceled
	if !errors.As(res.Err, &c) {
		t.Fatalf("want *obs.Canceled, got %v", res.Err)
	}
	if c.Rounds != stopAfter {
		t.Fatalf("canceled after %d rounds, want %d", c.Rounds, stopAfter)
	}
	if len(c.Tail) != stopAfter {
		t.Fatalf("tail has %d records, want %d", len(c.Tail), stopAfter)
	}
	for i, fr := range c.Tail {
		if fr.Algo != "kcore" {
			t.Fatalf("tail[%d].Algo = %q, want kcore", i, fr.Algo)
		}
		if fr.Round != int64(i+1) {
			t.Fatalf("tail[%d].Round = %d, want %d", i, fr.Round, i+1)
		}
	}
	var buf bytes.Buffer
	c.WriteTail(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("kcore")) {
		t.Fatalf("WriteTail output missing algo name:\n%s", buf.String())
	}
}

// TestCorenessAllocsScaleWithRoundsNotVertices pins the allocation
// shape of a whole run at P=1. Coreness itself allocates a handful of
// objects per run — its closures, its destination, the result, and the
// local peel's buffers as they grow — and nothing per round, per vertex
// or per edge. What is left is the bucket structure's: on this graph
// 2,225 objects over 69 rounds (≈ 32 per round: a round that peels a
// whole level rebuckets into many slots), 74 % fresh chunks from bucket.chunkAlloc, 18 % the per-slot
// chunk lists UpdateBuckets appends them to, 4 % the free list's class
// slices growing in freePut (the list has no lock: only the caller
// touches it), 2 % the local peel's buffers.
func TestCorenessAllocsScaleWithRoundsNotVertices(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if bucket.DebugEnabled {
		t.Skip("julienne_debug bookkeeping allocates by design")
	}
	old := parallel.SetProcs(1)
	defer parallel.SetProcs(old)

	g := gen.RMAT(1<<15, 1<<18, true, 3)
	rounds := Coreness(g, Options{}).Rounds
	bound := float64(32*rounds + 64)
	if bound >= float64(g.NumVertices()) {
		t.Fatalf("%d rounds on n=%d: the bound would not notice a per-vertex allocation", rounds, g.NumVertices())
	}
	if allocs := testing.AllocsPerRun(3, func() { Coreness(g, Options{}) }); allocs > bound {
		t.Errorf("Coreness: %v allocs over %d rounds (n=%d), want ≤ 32·rounds + 64 = %v", allocs, rounds, g.NumVertices(), bound)
	}
}

// TestCorenessRegionsPerRound pins what a k-core round costs in
// parallel regions at P=1 on the benchmark's graph (RMAT, n = 2¹⁷,
// m = 2²¹, seed 2017; 114 rounds, one per distinct coreness value, ρ =
// 382): at most 11 per round. Bucket calls below the fork cut-off open
// none, and a slot compacts in one pass over all of its chunks, not one
// filter region per chunk. Measured: 1 region in the whole run — the
// degree initialisation; before updates and compaction below the
// cut-off ran on the caller it was 15,555 (40.7 per round of 382).
func TestCorenessRegionsPerRound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2-million-edge graph")
	}
	defer parallel.SetProcs(parallel.SetProcs(1))
	g := gen.RMAT(1<<17, 1<<21, true, 2017)
	before := parallel.ForkStats()
	res := Coreness(g, Options{})
	forks := parallel.ForkStats().Sub(before)
	if regions := forks.Forked + forks.Inline; regions > 11*res.Rounds {
		t.Errorf("%d regions over %d rounds (%.1f per round), want ≤ 11 per round",
			regions, res.Rounds, float64(regions)/float64(res.Rounds))
	}
}
