package compress

import (
	"testing"
	"testing/quick"

	"julienne/internal/gen"
	"julienne/internal/graph"
)

func assertSameGraph(t *testing.T, name string, want, got graph.Graph) {
	t.Helper()
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: shape mismatch (%d,%d) vs (%d,%d)", name,
			want.NumVertices(), want.NumEdges(), got.NumVertices(), got.NumEdges())
	}
	if want.Weighted() != got.Weighted() || want.Symmetric() != got.Symmetric() {
		t.Fatalf("%s: flags mismatch", name)
	}
	for v := 0; v < want.NumVertices(); v++ {
		vv := graph.Vertex(v)
		if want.OutDegree(vv) != got.OutDegree(vv) {
			t.Fatalf("%s: degree(%d) %d vs %d", name, v, want.OutDegree(vv), got.OutDegree(vv))
		}
		wn, ww := want.OutAdj(vv, nil)
		gn, gw := got.OutAdj(vv, nil)
		if len(wn) != len(gn) || len(ww) != len(gw) {
			t.Fatalf("%s: neighbor or weight count of %d differs", name, v)
		}
		for i := range wn {
			if wn[i] != gn[i] || (ww != nil && ww[i] != gw[i]) {
				t.Fatalf("%s: neighbor %d of %d: %d vs %d", name, i, v, wn[i], gn[i])
			}
		}
	}
}

func TestRoundTripFamilies(t *testing.T) {
	cases := map[string]*graph.CSR{
		"rmat":      gen.RMAT(1<<10, 8000, true, 1),
		"grid":      gen.Grid2D(17, 23),
		"er-dir":    gen.ErdosRenyi(400, 2500, false, 2),
		"weighted":  gen.HeavyWeights(gen.RMAT(1<<9, 4000, true, 3), 3),
		"wtd-log":   gen.LogWeights(gen.Grid2D(12, 12), 4),
		"star":      gen.Star(100),
		"singleton": gen.Complete(2),
	}
	for name, g := range cases {
		assertSameGraph(t, name, g, FromCSR(g))
	}
}

func TestEmptyAndIsolated(t *testing.T) {
	g := graph.FromEdges(10, []graph.Edge{{U: 0, V: 9}}, graph.DefaultBuild)
	c := FromCSR(g)
	if c.OutDegree(5) != 0 {
		t.Fatal("isolated vertex has neighbors")
	}
	empty := FromCSR(graph.FromEdges(0, nil, graph.DefaultBuild))
	if empty.NumVertices() != 0 || empty.NumEdges() != 0 {
		t.Fatal("empty graph")
	}
}

func TestInAdjDirected(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 3}, {U: 1, V: 3}, {U: 4, V: 3}},
		graph.DefaultBuild)
	c := FromCSR(g)
	if ns, _ := c.InAdj(3, nil); len(ns) != 3 {
		t.Fatalf("in-neighbors %v", ns)
	}
	if c.InDegree(3) != 3 || c.InDegree(0) != 0 {
		t.Fatal("in-degrees wrong")
	}
}

func TestCompressionShrinksBigGraphs(t *testing.T) {
	g := gen.RMAT(1<<12, 120000, true, 9)
	c := FromCSR(g)
	raw := g.NumEdges() * 4 // uint32 per edge endpoint
	if c.SizeBytes() >= raw {
		t.Fatalf("compression did not shrink: %d bytes vs raw %d", c.SizeBytes(), raw)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		buf := make([]byte, 10)
		end := putVarint(buf, 0, x)
		if int(end) != varintLen(x) {
			return false
		}
		got, pos := getVarint(buf, 0)
		return got == x && pos == end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, ^uint64(0)} {
		buf := make([]byte, 10)
		end := putVarint(buf, 0, x)
		got, _ := getVarint(buf, 0)
		if got != x {
			t.Fatalf("varint(%d) -> %d (len %d)", x, got, end)
		}
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(x int64) bool { return unzigzag(zigzag(x)) == x }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{0, -1, 1, -(1 << 62), 1 << 62} {
		if unzigzag(zigzag(x)) != x {
			t.Fatalf("zigzag(%d)", x)
		}
	}
}
