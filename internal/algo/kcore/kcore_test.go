package kcore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/harness"
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
	// extracted or when a worker's queue takes it, and traverses
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
// per peeling step, so exactly ρ at every P. The bucketed run's workers
// peel a level to its end in their own queues, so at every P it takes
// one round per distinct coreness value. On the larger RMAT graph some
// of the baseline's steps fork at P=2, so its shared decrement runs: the
// run forks more regions than its scans alone would.
func TestRhoMatchesRounds(t *testing.T) {
	// rho also returns the largest coreness and the number of peeling
	// steps whose work merits more than one worker at the current P.
	rho := func(g graph.Graph) (rounds int64, kmax int, forking int) {
		n := g.NumVertices()
		deg := make([]int, n)
		for v := range deg {
			deg[v] = g.OutDegree(graph.Vertex(v))
		}
		removed := make([]bool, n)
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
			work := int64(0)
			for v := range deg {
				if !removed[v] && deg[v] <= k {
					peel = append(peel, graph.Vertex(v))
					work += 1 + int64(g.OutDegree(graph.Vertex(v)))
				}
			}
			if len(peel) > 1 && parallel.WorkersFor(work) > 1 {
				forking++
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
		return rounds, k, forking
	}
	defer parallel.SetProcs(parallel.SetProcs(1))
	for name, g := range map[string]graph.Graph{
		"rmat":       gen.RMAT(1<<10, 8000, true, 11),
		"rmat-large": gen.RMAT(1<<13, 1<<17, true, 11),
		"grid":       gen.Grid2D(12, 9),
		"K10":        gen.Complete(10), // one round
	} {
		for _, p := range []int{1, 2, 4} {
			parallel.SetProcs(p)
			r, kmax, forking := rho(g)
			before := parallel.ForkStats()
			if got := CorenessLigra(g).Rounds; got != r {
				t.Errorf("%s: P=%d ligra %d rounds, ρ = %d", name, p, got, r)
			}
			if forked := parallel.ForkStats().Sub(before).Forked; p == 2 && name == "rmat-large" {
				before = parallel.ForkStats()
				parallel.PackIndices(nil, g.NumVertices(), func(int) bool { return false })
				scans := parallel.ForkStats().Sub(before).Forked * int64(kmax+1)
				if forking == 0 || forked < scans+int64(forking) {
					t.Errorf("%s: P=2 ligra forked %d regions, want at least its %d scans' %d plus one per forking step (%d)",
						name, forked, kmax+1, scans, forking)
				}
			}
			res := Coreness(g, Options{})
			if lv := levels(res.Coreness); res.Rounds != lv {
				t.Errorf("%s: P=%d %d rounds, %d distinct coreness values (ρ = %d)", name, p, res.Rounds, lv, r)
			}
		}
	}
}

// levels is the number of distinct coreness values.
func levels(coreness []uint32) int64 {
	seen := map[uint32]bool{}
	for _, c := range coreness {
		seen[c] = true
	}
	return int64(len(seen))
}

// TestPathPeelsInOneRoundAtEveryP pins a level's cascade on a path,
// whose ρ is n/2: one level, peeled two vertices per step. At every P
// the whole path goes in one round from the two extracted endpoints,
// each end's cascade running in the queue of the worker that peeled it.
func TestPathPeelsInOneRoundAtEveryP(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(1))
	g := gen.Path(1 << 16)
	for _, p := range []int{1, 2, 4} {
		parallel.SetProcs(p)
		res := Coreness(g, Options{})
		for v, c := range res.Coreness {
			if c != 1 {
				t.Fatalf("P=%d: coreness[%d] = %d, want 1", p, v, c)
			}
		}
		if res.Rounds != 1 || res.BucketStats.Extracted != 2 {
			t.Errorf("P=%d: %d rounds extracting %d vertices, want 1 round extracting the 2 endpoints",
				p, res.Rounds, res.BucketStats.Extracted)
		}
	}
}

// cancelAfter is a graph whose OutAdj cancels a context on its calls'
// limit'th: a deterministic way to stop a run inside a round.
type cancelAfter struct {
	graph.Graph
	calls  atomic.Int64
	limit  int64
	cancel context.CancelFunc
}

func (g *cancelAfter) OutAdj(v graph.Vertex, buf *graph.AdjBuf) ([]graph.Vertex, []graph.Weight) {
	if g.calls.Add(1) == g.limit {
		g.cancel()
	}
	return g.Graph.OutAdj(v, buf)
}

// TestCanceledRoundHandsBack pins what a round does when the context is
// canceled while it peels: its workers stop at their next poll, the
// queued vertices they did not traverse (all at D == k) go back into
// bucket k, and the run stops with a *obs.Canceled after that round.
// On the path the round runs at P=1; on the star it forks at P=2 and
// the leaves left unpeeled are handed back.
func TestCanceledRoundHandsBack(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(1))
	for _, tc := range []struct {
		name  string
		g     graph.Graph
		procs int
	}{
		{"path", gen.Path(1 << 16), 1},
		{"star", gen.Star(1 << 17), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parallel.SetProcs(tc.procs)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			g := &cancelAfter{Graph: tc.g, limit: 1000, cancel: cancel}
			res := Coreness(g, Options{Ctx: ctx})
			var c *obs.Canceled
			if !errors.As(res.Err, &c) || c.Rounds != 1 || res.Rounds != 1 {
				t.Fatalf("Err = %v after %d rounds, want a *obs.Canceled after round 1", res.Err, res.Rounds)
			}
			n := int64(tc.g.NumVertices())
			if res.VerticesScanned >= n || res.VerticesScanned < g.limit {
				t.Fatalf("peeled %d of %d vertices, want the run stopped inside its round after %d", res.VerticesScanned, n, g.limit)
			}
			// A vertex at D == 1 was peeled or handed back: every leaf of
			// the star, and on the path the peeled prefix of each end
			// plus the neighbor queued next.
			var atK int64
			for _, dv := range res.Coreness {
				if dv == 1 {
					atK++
				}
			}
			// Each handed-back vertex is moved; the only other vertex the
			// round can move is the star's center, lowered but above 1.
			back, moved := atK-res.VerticesScanned, res.BucketStats.Moved
			if back < 1 || moved < back || moved > back+1 {
				t.Errorf("%d vertices moved with %d at D = 1 and %d peeled, want the %d handed back moved",
					moved, atK, res.VerticesScanned, back)
			}
		})
	}
}

// TestForkedRoundsMatchBZ runs the per-worker arm — rounds split over
// several workers that lower D with compare-and-swap — at P=2 and P=4
// on a graph whose low levels are above the fork cut-off, and holds it
// to the sequential BZ peel. make race runs it under the race detector;
// at this size (≈17 forked regions a run) the detector reports a plain
// store put in place of the swap, where a 2¹⁴-vertex graph's 4 regions
// finished before a helper joined them.
func TestForkedRoundsMatchBZ(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(1))
	g := gen.RMAT(1<<15, 1<<19, true, 9)
	want := CorenessBZ(g)
	for _, p := range []int{2, 4} {
		parallel.SetProcs(p)
		before := parallel.ForkStats()
		res := Coreness(g, Options{})
		if forked := parallel.ForkStats().Sub(before).Forked; forked < 1 {
			t.Fatalf("P=%d: %d regions forked; the graph no longer reaches the cut-off", p, forked)
		}
		checkEqual(t, "forked", res.Coreness, want)
		if lv := levels(want); res.Rounds != lv {
			t.Errorf("P=%d: %d rounds, want one per distinct coreness value, %d", p, res.Rounds, lv)
		}
		if res.VerticesScanned != int64(g.NumVertices()) || res.EdgesTraversed != g.NumEdges() {
			t.Errorf("P=%d: scanned %d vertices and %d edges, want n = %d and Σdeg = %d",
				p, res.VerticesScanned, res.EdgesTraversed, g.NumVertices(), g.NumEdges())
		}
	}
}

// hugeDegree claims one vertex of 2³¹ neighbors, which D's mark bit
// cannot hold beside the count.
type hugeDegree struct{ graph.Graph }

func (hugeDegree) NumVertices() int           { return 1 }
func (hugeDegree) Symmetric() bool            { return true }
func (hugeDegree) OutDegree(graph.Vertex) int { return int(hugeDeg) }

// hugeDeg is a variable so that the package compiles where int has 32
// bits; TestDegreeGuard calls OutDegree only where it has 64.
var hugeDeg int64 = mark

// TestDegreeGuard pins the boundary of the degree guard: 2³¹ − 1
// neighbors fit beside the mark bit, 2³¹ are refused with a panic that
// says so, before anything is peeled.
func TestDegreeGuard(t *testing.T) {
	refused := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	if msg := refused(func() { checkDegree(mark - 1) }); msg != "<nil>" {
		t.Errorf("2^31-1 neighbors refused: %s", msg)
	}
	if msg := refused(func() { checkDegree(mark) }); !strings.Contains(msg, "fewer than 2^31") {
		t.Errorf("2^31 neighbors: panic %q, want the guard's", msg)
	}
	if strconv.IntSize == 64 {
		if msg := refused(func() { Coreness(hugeDegree{}, Options{}) }); !strings.Contains(msg, "fewer than 2^31") {
			t.Errorf("Coreness on a vertex of 2^31 neighbors: panic %q, want the guard's", msg)
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
// shape of a whole steady-state run at P=1: a constant number of
// objects, whatever the rounds and vertices — the answer, the run's
// closures and the bucket structure's fill. The peelers and the bucket
// structure, with its chunks, are borrowed for the run, so a run that
// follows one as large allocates no chunk, no chunk list and no peeler
// buffer: 14 objects on this graph, over 69 rounds. The second half
// pins the bytes: the answer plus at most 64 KiB. The Ligra comparator
// packs every level's scan into one buffer the run keeps, and a scan
// below the fork cut-off allocates nothing, so its objects do not grow
// with k_max either: 10 and 9 per run on this graph (k_max 92) and a
// smaller one (k_max 27), where each level's scan cost about three.
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
	if allocs := testing.AllocsPerRun(3, func() { Coreness(g, Options{}) }); allocs > 32 {
		t.Errorf("Coreness: %v allocs per run, want ≤ 32", allocs)
	}
	for _, h := range []graph.Graph{g, gen.RMAT(1<<10, 1<<13, true, 3)} {
		if allocs := testing.AllocsPerRun(3, func() { CorenessLigra(h) }); allocs > 32 {
			t.Errorf("CorenessLigra: %v allocs per run (k_max %d), want ≤ 32", allocs, slices.Max(CorenessLigra(h).Coreness))
		}
	}
	answer := uint64(4 * g.NumVertices())
	if got := harness.AllocBytesPerRun(3, func() { Coreness(g, Options{}) }); got > answer+64<<10 {
		t.Errorf("Coreness: %d bytes per run, want ≤ the %d-byte answer + 64 KiB", got, answer)
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
