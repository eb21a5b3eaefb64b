package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

// triangle plus a pendant: 0-1, 1-2, 2-0, 2-3 (undirected).
func triPendant(t *testing.T) *CSR {
	t.Helper()
	g := FromEdges(4, []Edge{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}, {2, 3, 0}},
		BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := triPendant(t)
	if g.NumVertices() != 4 {
		t.Fatalf("n=%d want 4", g.NumVertices())
	}
	if g.NumEdges() != 8 {
		t.Fatalf("m=%d want 8", g.NumEdges())
	}
	wantDeg := []int{2, 2, 3, 1}
	for v, d := range wantDeg {
		if got := g.OutDegree(Vertex(v)); got != d {
			t.Fatalf("deg(%d)=%d want %d", v, got, d)
		}
	}
	if !g.Symmetric() || g.Weighted() {
		t.Fatal("flags wrong")
	}
}

func TestFromEdgesDirected(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 0}, {1, 2, 0}}, DefaultBuild)
	if g.Symmetric() {
		t.Fatal("directed graph marked symmetric")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d want 2", g.NumEdges())
	}
	if g.OutDegree(0) != 1 || g.OutDegree(2) != 0 {
		t.Fatal("wrong out-degrees")
	}
	if g.InDegree(2) != 1 || g.InDegree(0) != 0 {
		t.Fatal("wrong in-degrees")
	}
	if ins, _ := g.InAdj(2, nil); !slices.Contains(ins, 1) {
		t.Fatal("InAdj(2) missing 1")
	}
}

func TestFromEdgesDropsSelfLoopsAndDupes(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 0, 0}, {0, 1, 0}, {0, 1, 0}, {1, 2, 0}}, DefaultBuild)
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d want 2", g.NumEdges())
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesKeepsFirstDuplicateWeight(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1, 7}, {0, 1, 9}},
		BuildOptions{Weighted: true, DropSelfLoops: true, Dedup: true})
	w := g.OutWeights(0)
	if len(w) != 1 || w[0] != 7 {
		t.Fatalf("weights=%v want [7]", w)
	}
}

func TestFromEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range edge")
		}
	}()
	FromEdges(2, []Edge{{0, 5, 0}}, DefaultBuild)
}

func TestFromEdgesPanicsNegativeWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative weight")
		}
	}()
	FromEdges(2, []Edge{{0, 1, -3}}, BuildOptions{Weighted: true})
}

func TestWeightedNeighbors(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 5}, {0, 2, 9}},
		BuildOptions{Weighted: true, DropSelfLoops: true, Dedup: true})
	got := map[Vertex]Weight{}
	nbrs, ws := g.OutAdj(0, nil)
	for i, u := range nbrs {
		got[u] = ws[i]
	}
	if got[1] != 5 || got[2] != 9 {
		t.Fatalf("weights %v", got)
	}
}

func TestPackOut(t *testing.T) {
	g := triPendant(t)
	d := g.PackOut(2, func(u Vertex) bool { return u != 3 })
	if d != 2 {
		t.Fatalf("packed degree %d want 2", d)
	}
	if g.OutDegree(2) != 2 {
		t.Fatalf("OutDegree(2)=%d want 2", g.OutDegree(2))
	}
	for _, u := range g.OutEdges(2) {
		if u == 3 {
			t.Fatal("packed-out neighbor still visible")
		}
	}
	// Unpacked vertices unaffected.
	if g.OutDegree(0) != 2 {
		t.Fatal("pack disturbed other vertex")
	}
	// NumEdges reflects the live count.
	if g.NumEdges() != 7 {
		t.Fatalf("live m=%d want 7", g.NumEdges())
	}
	// Packing everything empties the list.
	if d := g.PackOut(2, func(Vertex) bool { return false }); d != 0 {
		t.Fatalf("full pack left degree %d", d)
	}
}

func TestPackOutWeighted(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 10}, {0, 2, 20}, {0, 3, 30}},
		BuildOptions{Weighted: true, DropSelfLoops: true, Dedup: true})
	g.PackOut(0, func(u Vertex) bool { return u != 2 })
	nbrs, wgts := g.OutEdges(0), g.OutWeights(0)
	if len(nbrs) != 2 || len(wgts) != 2 {
		t.Fatalf("lens %d %d", len(nbrs), len(wgts))
	}
	for i, u := range nbrs {
		if u == 1 && wgts[i] != 10 || u == 3 && wgts[i] != 30 {
			t.Fatalf("weight misaligned after pack: %v %v", nbrs, wgts)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := triPendant(t)
	c := g.Clone()
	c.PackOut(2, func(u Vertex) bool { return false })
	if g.OutDegree(2) != 3 {
		t.Fatal("clone mutation leaked into original")
	}
	if c.OutDegree(2) != 0 {
		t.Fatal("clone pack did not stick")
	}
}

func TestSymmetrized(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 0}, {1, 2, 0}, {2, 1, 0}}, DefaultBuild)
	s := Symmetrized(g)
	if !s.Symmetric() {
		t.Fatal("not symmetric")
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	// undirected edges {0,1},{1,2} -> 4 directed
	if s.NumEdges() != 4 {
		t.Fatalf("m=%d want 4", s.NumEdges())
	}
}

func TestReweighted(t *testing.T) {
	g := triPendant(t)
	w := Reweighted(g, func(u, v Vertex) Weight { return Weight(u + v) })
	if !w.Weighted() {
		t.Fatal("Reweighted graph not weighted")
	}
	nbrs, ws := w.OutAdj(2, nil)
	for i, u := range nbrs {
		if ws[i] != Weight(2+u) {
			t.Fatalf("weight(2,%d)=%d", u, ws[i])
		}
	}
	if g.Weighted() {
		t.Fatal("original gained weights")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	// For a symmetric graph, in-neighbors equal out-neighbors.
	g := triPendant(t)
	for v := 0; v < g.NumVertices(); v++ {
		ins, _ := g.InAdj(Vertex(v), nil)
		outs, _ := g.OutAdj(Vertex(v), nil)
		if len(ins) != len(outs) {
			t.Fatalf("v=%d in/out mismatch", v)
		}
	}
}

func TestTransposeDirectedWeighted(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 2, 5}, {1, 2, 7}, {3, 2, 9}},
		BuildOptions{Weighted: true, DropSelfLoops: true, Dedup: true})
	got := map[Vertex]Weight{}
	nbrs, ws := g.InAdj(2, nil)
	for i, u := range nbrs {
		got[u] = ws[i]
	}
	want := map[Vertex]Weight{0: 5, 1: 7, 3: 9}
	if len(got) != len(want) {
		t.Fatalf("in-neighbors %v", got)
	}
	for u, w := range want {
		if got[u] != w {
			t.Fatalf("in-weight(%d)=%d want %d", u, got[u], w)
		}
	}
}

func TestMaxDegreeAndDegrees(t *testing.T) {
	g := triPendant(t)
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree=%d want 3", g.MaxDegree())
	}
	if d2, d3 := g.OutDegree(2), g.OutDegree(3); d2 != 3 || d3 != 1 {
		t.Fatalf("degrees of 2 and 3 = %d, %d, want 3, 1", d2, d3)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil, DefaultBuild)
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph misbehaves")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := FromEdges(10, []Edge{{0, 9, 0}}, DefaultBuild)
	for v := 1; v < 9; v++ {
		if g.OutDegree(Vertex(v)) != 0 {
			t.Fatalf("vertex %d should be isolated", v)
		}
	}
}

// TestFromEdgesPropertyVsMapOracle cross-checks the CSR builder
// (counting sorts + dedup + symmetrize) against a naive adjacency-map oracle on
// random edge lists.
func TestFromEdgesPropertyVsMapOracle(t *testing.T) {
	f := func(raw []uint16, symmetrize bool) bool {
		const n = 64
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				U: Vertex(raw[i] % n),
				V: Vertex(raw[i+1] % n),
				W: Weight(i),
			})
		}
		opt := BuildOptions{Symmetrize: symmetrize, DropSelfLoops: true, Dedup: true}
		g := FromEdges(n, edges, opt)
		if err := Validate(g); err != nil {
			return false
		}
		// Oracle: set of directed edges after the same transformations.
		want := map[[2]Vertex]bool{}
		for _, e := range edges {
			if e.U == e.V {
				continue
			}
			want[[2]Vertex{e.U, e.V}] = true
			if symmetrize {
				want[[2]Vertex{e.V, e.U}] = true
			}
		}
		if int(g.NumEdges()) != len(want) {
			return false
		}
		for v := Vertex(0); v < n; v++ {
			for _, u := range g.OutEdges(v) {
				if !want[[2]Vertex{v, u}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
