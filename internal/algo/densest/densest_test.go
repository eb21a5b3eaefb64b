package densest

import (
	"math"
	"testing"

	"julienne/internal/algo/kcore"
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
	// K10 (density 4.5) plus a long path attached: the peel must find
	// (a superset as dense as) the clique.
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

	res := Find(g, Options{})
	checkResult(t, "densest", g, res)
	if res.Density < 4.5-1e-9 {
		t.Fatalf("density %v < clique density 4.5", res.Density)
	}
}

func TestCompleteGraph(t *testing.T) {
	g := gen.Complete(8)
	want := 3.5 // 28 edges / 8 vertices
	res := Find(g, Options{})
	checkResult(t, "densest", g, res)
	if res.Density != want {
		t.Fatalf("density %v want %v", res.Density, want)
	}
	if len(res.Vertices) != 8 {
		t.Fatal("should keep the whole clique")
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
		res := Find(g, Options{})
		checkResult(t, name, g, res)
		// The optimum is at least the whole graph's density, and the
		// whole graph is the 0-core. proptest.TestDensestMatchesOracle
		// holds the exact answer.
		whole := float64(g.NumEdges()) / 2 / float64(g.NumVertices())
		if res.Density < whole-1e-9 {
			t.Fatalf("%s: density %v below whole-graph density %v", name, res.Density, whole)
		}
		// The pass reads adjacency through a decode buffer on the
		// compressed representation and must land on the same subgraph.
		comp := Find(compress.FromCSR(g), Options{})
		if comp.Density != res.Density || len(comp.Vertices) != len(res.Vertices) {
			t.Errorf("%s: compressed density %v over %d vertices, CSR %v over %d", name,
				comp.Density, len(comp.Vertices), res.Density, len(res.Vertices))
		}
	}
}

func TestEmptyAndTiny(t *testing.T) {
	empty := graph.FromEdges(0, nil, graph.BuildOptions{Symmetrize: true})
	if res := Find(empty, Options{}); len(res.Vertices) != 0 {
		t.Fatal("empty graph")
	}
	single := gen.Star(2) // one edge
	res := Find(single, Options{})
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
	Find(g, Options{})
}

// TestPeelsAllocsScaleWithRoundsNotVertices pins the allocation shape
// of a whole steady-state Find run at P=1: a constant number of
// objects, none per vertex, per round or per coreness level — the
// coreness peel's (at most 32, which
// kcore.TestCorenessAllocsScaleWithRoundsNotVertices pins) plus at most
// 16 for the pass over its values: its histogram, decode buffer and
// vertex set.
func TestPeelsAllocsScaleWithRoundsNotVertices(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if bucket.DebugEnabled {
		t.Skip("julienne_debug bookkeeping allocates by design")
	}
	defer parallel.SetProcs(parallel.SetProcs(1))

	g := gen.RMAT(1<<15, 1<<18, true, 3)
	peel := testing.AllocsPerRun(3, func() { kcore.Coreness(g, kcore.Options{}) })
	find := testing.AllocsPerRun(3, func() { Find(g, Options{}) })
	if peel > 32 || find > peel+16 {
		t.Errorf("Find allocates %v objects, its coreness peel %v: want ≤ 32 for the peel and at most 16 more", find, peel)
	}
}
