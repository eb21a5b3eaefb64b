package gen

import (
	"testing"

	"julienne/internal/graph"
)

func validOrFatal(t *testing.T, g *graph.CSR) {
	t.Helper()
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(1000, 5000, false, 1)
	validOrFatal(t, g)
	if g.NumVertices() != 1000 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if m := g.NumEdges(); m < 4500 || m > 5000 {
		t.Fatalf("m=%d far from requested 5000", m)
	}
	s := ErdosRenyi(1000, 5000, true, 1)
	validOrFatal(t, s)
	if !s.Symmetric() {
		t.Fatal("not symmetric")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RMAT(1<<10, 8000, true, 42)
	b := RMAT(1<<10, 8000, true, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different edge counts")
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.OutDegree(graph.Vertex(v)) != b.OutDegree(graph.Vertex(v)) {
			t.Fatalf("same seed, different degree at %d", v)
		}
	}
	c := RMAT(1<<10, 8000, true, 43)
	diff := false
	for v := 0; v < a.NumVertices() && !diff; v++ {
		if a.OutDegree(graph.Vertex(v)) != c.OutDegree(graph.Vertex(v)) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(2000, 8, false, 7)
	validOrFatal(t, g)
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.Vertex(v)); d > 8 {
			t.Fatalf("degree %d exceeds 8", d)
		}
	}
	// Dedup removes only a tiny fraction at this density.
	if m := g.NumEdges(); m < 15000 {
		t.Fatalf("m=%d too small", m)
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(1<<12, 40000, true, 9)
	validOrFatal(t, g)
	// RMAT should produce a heavy tail: max degree well above average.
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 4*avg {
		t.Fatalf("RMAT not skewed: max=%d avg=%.1f", g.MaxDegree(), avg)
	}
}

// RMAT on fewer than two vertices has no edge to accept (every sample
// is a self-loop or out of range), so it returns the edgeless graph at
// once instead of sampling forever.
func TestRMATTinyNIsEdgeless(t *testing.T) {
	for _, n := range []int{0, 1} {
		for _, m := range []int{0, 5, 1 << 20} {
			for _, sym := range []bool{false, true} {
				g := RMAT(n, m, sym, 1)
				validOrFatal(t, g)
				if g.NumVertices() != n || g.NumEdges() != 0 || g.Symmetric() != sym {
					t.Fatalf("RMAT(%d, %d, %v): n=%d m=%d symmetric=%v", n, m, sym,
						g.NumVertices(), g.NumEdges(), g.Symmetric())
				}
			}
		}
	}
}

// The integer quadrant thresholds split the 53-bit draws exactly where
// the float test Float64() < t does, for the three sums the sampler
// compares against (untyped constants, rounded once, as in that test).
func TestRMATCutsMatchFloatTest(t *testing.T) {
	const a, b, c = 0.57, 0.19, 0.19
	for i, th := range []float64{a, a + b, a + b + c} {
		cut := rmatCuts[i]
		for y := cut - 2; y <= cut+1; y++ {
			if float := float64(y)/(1<<53) < th; float != (y < cut) {
				t.Errorf("threshold %v: y=%d float test %v, integer test %v", th, y, float, y < cut)
			}
		}
	}
}

func TestChungLu(t *testing.T) {
	g := ChungLu(4000, 30000, 2.3, true, 5)
	validOrFatal(t, g)
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 4*avg {
		t.Fatalf("ChungLu not skewed: max=%d avg=%.1f", g.MaxDegree(), avg)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(10, 15)
	validOrFatal(t, g)
	if g.NumVertices() != 150 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// Interior vertices have degree 4, corners 2.
	if g.OutDegree(0) != 2 {
		t.Fatalf("corner degree %d", g.OutDegree(0))
	}
	if g.OutDegree(graph.Vertex(1*15+1)) != 4 {
		t.Fatalf("interior degree %d", g.OutDegree(graph.Vertex(16)))
	}
	// m = 2 * (#undirected edges) = 2 * (10*14 + 9*15)
	if g.NumEdges() != int64(2*(10*14+9*15)) {
		t.Fatalf("m=%d", g.NumEdges())
	}
}

func TestSmallFixtures(t *testing.T) {
	p := Path(5)
	validOrFatal(t, p)
	if p.NumEdges() != 8 {
		t.Fatalf("path m=%d", p.NumEdges())
	}
	c := Cycle(6)
	validOrFatal(t, c)
	if c.NumEdges() != 12 {
		t.Fatalf("cycle m=%d", c.NumEdges())
	}
	for v := 0; v < 6; v++ {
		if c.OutDegree(graph.Vertex(v)) != 2 {
			t.Fatal("cycle degree != 2")
		}
	}
	s := Star(7)
	validOrFatal(t, s)
	if s.OutDegree(0) != 6 || s.OutDegree(3) != 1 {
		t.Fatal("star degrees wrong")
	}
	k := Complete(5)
	validOrFatal(t, k)
	for v := 0; v < 5; v++ {
		if k.OutDegree(graph.Vertex(v)) != 4 {
			t.Fatal("K5 degree != 4")
		}
	}
}

func TestUniformWeightsSymmetric(t *testing.T) {
	g := UniformWeights(Grid2D(8, 8), 1, 100, 3)
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	// w(u,v) == w(v,u) and in range.
	for v := 0; v < g.NumVertices(); v++ {
		nbrs, ws := g.OutAdj(graph.Vertex(v), nil)
		for i, u := range nbrs {
			w := ws[i]
			if w < 1 || w >= 100 {
				t.Fatalf("weight %d out of range", w)
			}
			back, backW := g.OutAdj(u, nil)
			for j, x := range back {
				if x == graph.Vertex(v) && backW[j] != w {
					t.Fatalf("asymmetric weight (%d,%d): %d vs %d", v, u, w, backW[j])
				}
			}
		}
	}
}

func TestLogAndHeavyWeights(t *testing.T) {
	g := Grid2D(20, 20)
	lg := LogWeights(g, 1)
	hv := HeavyWeights(g, 1)
	maxLog, maxHeavy := graph.Weight(0), graph.Weight(0)
	for v := 0; v < g.NumVertices(); v++ {
		_, lws := lg.OutAdj(graph.Vertex(v), nil)
		for _, w := range lws {
			if w < 1 {
				t.Fatalf("log weight %d < 1", w)
			}
			maxLog = max(maxLog, w)
		}
		_, hws := hv.OutAdj(graph.Vertex(v), nil)
		for _, w := range hws {
			if w < 1 || w >= 100000 {
				t.Fatalf("heavy weight %d out of range", w)
			}
			maxHeavy = max(maxHeavy, w)
		}
	}
	if maxLog >= 10 { // log2(400) ≈ 8.6 -> hi=9
		t.Fatalf("log weight cap wrong: max=%d", maxLog)
	}
	if maxHeavy < 50000 {
		t.Fatalf("heavy weights suspiciously small: max=%d", maxHeavy)
	}
}

func TestSetCoverInstance(t *testing.T) {
	inst := SetCover(100, 1000, 3, 11)
	g := inst.Graph
	validOrFatal(t, g)
	if g.NumVertices() != 1100 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// Every element must be covered by at least one set, and edges only
	// run from sets to elements.
	covered := make([]bool, inst.Elements)
	for s := 0; s < inst.Sets; s++ {
		elems, _ := g.OutAdj(graph.Vertex(s), nil)
		for _, u := range elems {
			if int(u) < inst.Sets {
				t.Fatalf("set->set edge (%d,%d)", s, u)
			}
			covered[int(u)-inst.Sets] = true
		}
	}
	for e := inst.Sets; e < g.NumVertices(); e++ {
		if g.OutDegree(graph.Vertex(e)) != 0 {
			t.Fatalf("element %d has out-edges", e)
		}
	}
	for e, c := range covered {
		if !c {
			t.Fatalf("element %d uncovered", e)
		}
	}
}
