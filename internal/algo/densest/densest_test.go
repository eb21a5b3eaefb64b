package densest

import (
	"math"
	"testing"

	"julienne/internal/bucket"
	"julienne/internal/compress"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/parallel"
)

func TestDensityHelper(t *testing.T) {
	k5 := gen.Complete(5)
	all := []graph.Vertex{0, 1, 2, 3, 4}
	if d := Density(k5, all); d != 2.0 { // C(5,2)=10 edges / 5 vertices
		t.Fatalf("K5 density %v want 2", d)
	}
	if d := Density(k5, all[:2]); d != 0.5 {
		t.Fatalf("pair density %v want 0.5", d)
	}
	if Density(k5, nil) != 0 {
		t.Fatal("empty density")
	}
}

// checkResult verifies the reported density equals the recomputed
// density of the reported vertex set.
func checkResult(t *testing.T, name string, g graph.Graph, res Result) {
	t.Helper()
	if len(res.Vertices) == 0 {
		t.Fatalf("%s: empty subgraph", name)
	}
	got := Density(g, res.Vertices)
	if math.Abs(got-res.Density) > 1e-9 {
		t.Fatalf("%s: reported density %v but set has %v (%d vertices)",
			name, res.Density, got, len(res.Vertices))
	}
}

func TestCliquePlusFringe(t *testing.T) {
	// K10 (density 4.5) plus a long path attached: both algorithms
	// must find (a superset as dense as) the clique.
	var edges []graph.Edge
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(i), V: graph.Vertex(j)})
		}
	}
	for i := 10; i < 60; i++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(i - 1), V: graph.Vertex(i)})
	}
	g := graph.FromEdges(60, edges,
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})

	ch := Charikar(g, Options{})
	checkResult(t, "charikar", g, ch)
	if ch.Density < 4.5-1e-9 {
		t.Fatalf("charikar density %v < clique density 4.5", ch.Density)
	}
	pb := PeelBatch(g, 0.1, Options{})
	checkResult(t, "peelbatch", g, pb)
	// (2+2ε)-approx of optimum >= 4.5.
	if pb.Density < 4.5/(2+0.2)-1e-9 {
		t.Fatalf("peelbatch density %v below guarantee", pb.Density)
	}
}

func TestCompleteGraph(t *testing.T) {
	g := gen.Complete(8)
	want := 3.5 // 28 edges / 8 vertices
	for name, res := range map[string]Result{
		"charikar":  Charikar(g, Options{}),
		"peelbatch": PeelBatch(g, 0.1, Options{}),
	} {
		checkResult(t, name, g, res)
		if res.Density != want {
			t.Fatalf("%s: density %v want %v", name, res.Density, want)
		}
		if len(res.Vertices) != 8 {
			t.Fatalf("%s: should keep the whole clique", name)
		}
	}
}

func TestGuaranteesOnRandomGraphs(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"rmat":    gen.RMAT(1<<10, 12000, true, 1),
		"chunglu": gen.ChungLu(1000, 8000, 2.3, true, 2),
		"er":      gen.ErdosRenyi(800, 4000, true, 3),
		"grid":    gen.Grid2D(20, 20),
	}
	for name, g := range graphs {
		ch := Charikar(g, Options{})
		checkResult(t, name+"/charikar", g, ch)
		pb := PeelBatch(g, 0.1, Options{})
		checkResult(t, name+"/peelbatch", g, pb)
		// Charikar is a 2-approx and PeelBatch a (2+2ε)-approx of the
		// same optimum, so they can differ by at most a factor
		// (2+2ε)/... — in particular PeelBatch cannot beat Charikar by
		// more than 2x and vice versa cannot be below charikar/(1+ε)
		// by much. Assert the loose mutual bound.
		if pb.Density > 2*ch.Density+1e-9 || ch.Density > (2+0.2)*pb.Density+1e-9 {
			t.Fatalf("%s: densities inconsistent: charikar=%v peelbatch=%v",
				name, ch.Density, pb.Density)
		}
		// Both must be at least half the max-degree-based lower bound
		// on optimum? Optimum >= m/n (whole graph).
		whole := float64(g.NumEdges()) / 2 / float64(g.NumVertices())
		if ch.Density < whole-1e-9 {
			t.Fatalf("%s: charikar %v below whole-graph density %v", name, ch.Density, whole)
		}
		// Both peels read adjacency through a decode buffer on the
		// compressed representation and must land on the same subgraph.
		c := compress.FromCSR(g)
		for _, run := range []struct {
			name      string
			csr, comp Result
		}{
			{"charikar", ch, Charikar(c, Options{})},
			{"peelbatch", pb, PeelBatch(c, 0.1, Options{})},
		} {
			if run.comp.Density != run.csr.Density || len(run.comp.Vertices) != len(run.csr.Vertices) {
				t.Errorf("%s/%s: compressed density %v over %d vertices, CSR %v over %d", name, run.name,
					run.comp.Density, len(run.comp.Vertices), run.csr.Density, len(run.csr.Vertices))
			}
		}
	}
}

func TestPeelBatchLogRounds(t *testing.T) {
	g := gen.RMAT(1<<12, 40000, true, 7)
	res := PeelBatch(g, 0.5, Options{})
	// O(log_{1.5} n) rounds: generous cap at 4*log2(n).
	maxRounds := int64(4 * 12)
	if res.Rounds > maxRounds {
		t.Fatalf("rounds %d exceed O(log n) expectation %d", res.Rounds, maxRounds)
	}
}

func TestEmptyAndTiny(t *testing.T) {
	empty := graph.FromEdges(0, nil, graph.BuildOptions{Symmetrize: true})
	if res := Charikar(empty, Options{}); len(res.Vertices) != 0 {
		t.Fatal("empty graph")
	}
	if res := PeelBatch(empty, 0.1, Options{}); len(res.Vertices) != 0 {
		t.Fatal("empty graph peelbatch")
	}
	single := gen.Star(2) // one edge
	res := Charikar(single, Options{})
	checkResult(t, "single-edge", single, res)
	if res.Density != 0.5 {
		t.Fatalf("single edge density %v", res.Density)
	}
}

func TestPanicsOnDirected(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, graph.DefaultBuild)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Charikar(g, Options{})
}

// TestPeelsAllocsScaleWithRoundsNotVertices pins the allocation shape
// of a whole run of each peel at P=1, as
// kcore.TestCorenessAllocsScaleWithRoundsNotVertices does: a few objects per round — the bucket structure's chunks for
// Charikar, the round's frontier for PeelBatch — and nothing per peeled
// vertex. Measured on this graph: Charikar 5,157 objects over 206
// rounds, PeelBatch 68 over 5. Counting the edges inside a peeled set
// through a per-vertex callback cost two allocations per vertex, and
// the runs 70,692 and 65,603.
func TestPeelsAllocsScaleWithRoundsNotVertices(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if bucket.DebugEnabled {
		t.Skip("julienne_debug bookkeeping allocates by design")
	}
	defer parallel.SetProcs(parallel.SetProcs(1))

	g := gen.RMAT(1<<15, 1<<18, true, 3)
	for name, run := range map[string]func() Result{
		"charikar":  func() Result { return Charikar(g, Options{}) },
		"peelbatch": func() Result { return PeelBatch(g, 0.1, Options{}) },
	} {
		rounds := run().Rounds
		bound := float64(32*rounds + 64)
		if bound >= float64(g.NumVertices()) {
			t.Fatalf("%s: %d rounds on n=%d: the bound would not notice a per-vertex allocation", name, rounds, g.NumVertices())
		}
		if allocs := testing.AllocsPerRun(3, func() { run() }); allocs > bound {
			t.Errorf("%s: %v allocs over %d rounds (n=%d), want ≤ 32·rounds + 64 = %v", name, allocs, rounds, g.NumVertices(), bound)
		}
	}
}
