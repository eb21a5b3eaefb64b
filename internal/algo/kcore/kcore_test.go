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
	// The bucketed algorithm scans each vertex exactly once at
	// extraction: VerticesScanned == n.
	if eff.VerticesScanned != int64(g.NumVertices()) {
		t.Fatalf("bucketed scanned %d want n=%d", eff.VerticesScanned, g.NumVertices())
	}
	// Bucket traffic is bounded by 2m + n (each edge causes at most one
	// move request; Lemma 3.2 instantiation in §4.1).
	moves := eff.BucketStats.Moved
	if moves > 2*g.NumEdges()+int64(g.NumVertices()) {
		t.Fatalf("bucket moves %d exceed 2m+n", moves)
	}
}

func TestRhoMatchesRounds(t *testing.T) {
	g := gen.RMAT(1<<10, 8000, true, 11)
	if Rho(g) != Coreness(g, Options{}).Rounds {
		t.Fatal("Rho disagrees with Rounds")
	}
	// A complete graph peels in exactly 1 round; a path in few rounds.
	if r := Rho(gen.Complete(10)); r != 1 {
		t.Fatalf("rho(K10)=%d want 1", r)
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
// objects per run — its closures, its destination, the result — and
// nothing per round, per vertex or per edge. What is left is the bucket
// structure's: on this graph 4,523 objects over 206 rounds (≈ 22 per
// round), 83 % fresh chunks from bucket.chunkAlloc, 13 % the per-slot
// chunk lists UpdateBuckets appends them to, 2 % freePut's free lists.
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
