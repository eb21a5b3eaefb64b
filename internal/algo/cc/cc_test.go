package cc

import (
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
)

// seqComponents is the union-find oracle.
func seqComponents(g graph.Graph) []graph.Vertex {
	n := g.NumVertices()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < n; v++ {
		g.OutNeighbors(graph.Vertex(v), func(u graph.Vertex, w graph.Weight) bool {
			a, b := find(v), find(int(u))
			if a != b {
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
			return true
		})
	}
	out := make([]graph.Vertex, n)
	for v := range out {
		out[v] = graph.Vertex(find(v))
	}
	// Canonicalize to minimum id per component.
	minOf := map[graph.Vertex]graph.Vertex{}
	for v, r := range out {
		if m, ok := minOf[r]; !ok || graph.Vertex(v) < m {
			minOf[r] = graph.Vertex(v)
		}
	}
	for v, r := range out {
		out[v] = minOf[r]
	}
	return out
}

func TestComponentsMatchUnionFind(t *testing.T) {
	graphs := map[string]graph.Graph{
		"two-components": graph.FromEdges(6,
			[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}},
			graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true}),
		"rmat":   gen.RMAT(1<<10, 4000, true, 1),
		"sparse": gen.ErdosRenyi(2000, 900, true, 2),
		"grid":   gen.Grid2D(15, 15),
		"cycle":  gen.Cycle(50),
	}
	for name, g := range graphs {
		want := seqComponents(g)
		got := Components(g)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("%s: label[%d]=%d want %d", name, v, got[v], want[v])
			}
		}
	}
}

func TestCount(t *testing.T) {
	g := graph.FromEdges(7,
		[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}},
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	labels := Components(g)
	if Count(labels) != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("Count=%d want 4", Count(labels))
	}
	if Count(nil) != 0 {
		t.Fatal("Count(nil) != 0")
	}
}

func TestPanicsOnDirected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on directed graph")
		}
	}()
	Components(graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, graph.DefaultBuild))
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil, graph.BuildOptions{Symmetrize: true})
	if len(Components(g)) != 0 {
		t.Fatal("empty graph")
	}
}
