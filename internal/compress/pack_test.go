package compress

import (
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/rng"
)

func TestPackOutBasic(t *testing.T) {
	c := FromCSR(gen.Star(8))
	d := c.PackOut(0, func(u graph.Vertex) bool { return u%2 == 1 })
	if d != 4 { // leaves 1,3,5,7
		t.Fatalf("packed degree %d want 4", d)
	}
	if c.OutDegree(0) != 4 {
		t.Fatal("degree not updated")
	}
	nbrs, _ := c.OutAdj(0, nil)
	for _, u := range nbrs {
		if u%2 != 1 {
			t.Fatalf("removed neighbor %d visible", u)
		}
	}
	if c.NumEdges() != int64(14-3) {
		t.Fatalf("live m=%d", c.NumEdges())
	}
}

func TestPackOutWeighted(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 10}, {U: 0, V: 2, W: 20}, {U: 0, V: 3, W: 30}},
		graph.BuildOptions{Weighted: true, DropSelfLoops: true, Dedup: true})
	c := FromCSR(g)
	c.PackOut(0, func(u graph.Vertex) bool { return u != 2 })
	got := map[graph.Vertex]graph.Weight{}
	nbrs, ws := c.OutAdj(0, nil)
	for i, u := range nbrs {
		got[u] = ws[i]
	}
	if len(got) != 2 || got[1] != 10 || got[3] != 30 {
		t.Fatalf("weights after pack: %v", got)
	}
}

// TestPackOutNeverOverflows drives random packs over random graphs —
// the in-place re-encode must always fit its byte region (the varint
// merge bound).
func TestPackOutNeverOverflows(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := gen.RMAT(1<<11, 30000, true, 5)
		if weighted {
			g = gen.HeavyWeights(g, 5)
		}
		c := FromCSR(g)
		r := rng.New(9)
		// Repeatedly pack random subsets until empty; compare against
		// a mirrored CSR pack.
		mirror := g.Clone()
		for round := 0; round < 6; round++ {
			for v := 0; v < c.NumVertices(); v++ {
				if c.OutDegree(graph.Vertex(v)) == 0 {
					continue
				}
				threshold := uint32(r.IntN(c.NumVertices()))
				keep := func(u graph.Vertex) bool { return u < threshold }
				cd := c.PackOut(graph.Vertex(v), keep)
				md := mirror.PackOut(graph.Vertex(v), keep)
				if cd != md {
					t.Fatalf("round %d v=%d: degrees %d vs %d", round, v, cd, md)
				}
			}
		}
		// Remaining adjacency must agree exactly.
		for v := 0; v < c.NumVertices(); v++ {
			cn, _ := c.OutAdj(graph.Vertex(v), nil)
			mn := mirror.OutEdges(graph.Vertex(v))
			if len(cn) != len(mn) {
				t.Fatalf("v=%d: %d vs %d neighbors", v, len(cn), len(mn))
			}
			for i := range cn {
				if cn[i] != mn[i] {
					t.Fatalf("v=%d neighbor %d: %d vs %d", v, i, cn[i], mn[i])
				}
			}
		}
		if c.NumEdges() != mirror.NumEdges() {
			t.Fatalf("live m %d vs %d", c.NumEdges(), mirror.NumEdges())
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := FromCSR(gen.Star(6))
	cl := c.Clone()
	cl.PackOut(0, func(graph.Vertex) bool { return false })
	if c.OutDegree(0) != 5 {
		t.Fatal("clone mutation leaked")
	}
	if cl.OutDegree(0) != 0 {
		t.Fatal("clone pack lost")
	}
}

func TestPackThenTransposePanics(t *testing.T) {
	c := FromCSR(graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}}, graph.DefaultBuild))
	c.PackOut(0, func(graph.Vertex) bool { return true })
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on transpose after pack")
		}
	}()
	c.InAdj(1, nil)
}

// TestInDegreeFollowsPackOnSymmetric: on a symmetric graph the
// in-adjacency is the out-adjacency, PackOut included, so InDegree must
// report the live length of InAdj. graph.CSR used to answer from the
// original offset range (path 0–1–2, drop 1→0: InAdj(1) held one
// vertex, InDegree(1) said 2).
func TestInDegreeFollowsPackOnSymmetric(t *testing.T) {
	csr := gen.Path(3)
	for name, g := range map[string]graph.Packer{"csr": csr.Clone(), "compressed": FromCSR(csr)} {
		g.PackOut(1, func(u graph.Vertex) bool { return u != 0 })
		ins, _ := g.InAdj(1, nil)
		if g.OutDegree(1) != 1 || len(ins) != 1 || g.InDegree(1) != 1 {
			t.Errorf("%s: after packing 1→0 away: OutDegree(1)=%d, InAdj(1) holds %d, InDegree(1)=%d; want 1, 1, 1",
				name, g.OutDegree(1), len(ins), g.InDegree(1))
		}
	}
}
