package triangles

import (
	"testing"

	"julienne/internal/compress"
	"julienne/internal/gen"
	"julienne/internal/graph"
)

// seqCount is the brute-force oracle: check every vertex triple.
func seqCount(g graph.Graph) int64 {
	n := g.NumVertices()
	adj := make([]map[graph.Vertex]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[graph.Vertex]bool{}
		g.OutNeighbors(graph.Vertex(v), func(u graph.Vertex, w graph.Weight) bool {
			adj[v][u] = true
			return true
		})
	}
	var c int64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !adj[a][graph.Vertex(b)] {
				continue
			}
			for x := b + 1; x < n; x++ {
				if adj[a][graph.Vertex(x)] && adj[b][graph.Vertex(x)] {
					c++
				}
			}
		}
	}
	return c
}

func TestKnownCounts(t *testing.T) {
	cases := map[string]struct {
		g    graph.Graph
		want int64
	}{
		"triangle": {gen.Complete(3), 1},
		"K4":       {gen.Complete(4), 4},
		"K6":       {gen.Complete(6), 20}, // C(6,3)
		"cycle5":   {gen.Cycle(5), 0},
		"star":     {gen.Star(10), 0},
		"path":     {gen.Path(10), 0},
		"grid":     {gen.Grid2D(5, 5), 0},
	}
	for name, tc := range cases {
		if got := Count(tc.g); got != tc.want {
			t.Fatalf("%s: %d triangles, want %d", name, got, tc.want)
		}
	}
}

func TestMatchesBruteForce(t *testing.T) {
	graphs := map[string]graph.Graph{
		"er":      gen.ErdosRenyi(120, 900, true, 1),
		"rmat":    gen.RMAT(1<<7, 1200, true, 2),
		"chunglu": gen.ChungLu(100, 700, 2.3, true, 3),
	}
	for name, g := range graphs {
		want := seqCount(g)
		if got := Count(g); got != want {
			t.Fatalf("%s: %d want %d", name, got, want)
		}
	}
}

func TestPerVertex(t *testing.T) {
	// Triangle + pendant: triangle vertices in 1 triangle each.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}},
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	pv := PerVertex(g)
	want := []int64{1, 1, 1, 0}
	for v := range want {
		if pv[v] != want[v] {
			t.Fatalf("perVertex[%d]=%d want %d", v, pv[v], want[v])
		}
	}
}

func TestCompressedGraph(t *testing.T) {
	g := gen.RMAT(1<<8, 3000, true, 5)
	if Count(g) != Count(compress.FromCSR(g)) {
		t.Fatal("compressed count differs")
	}
}

func TestPanicsOnDirected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Count(graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}}, graph.DefaultBuild))
}

func TestEmpty(t *testing.T) {
	if Count(graph.FromEdges(0, nil, graph.BuildOptions{Symmetrize: true})) != 0 {
		t.Fatal("empty graph")
	}
}
