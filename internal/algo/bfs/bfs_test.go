package bfs

import (
	"testing"

	"julienne/internal/compress"
	"julienne/internal/gen"
	"julienne/internal/graph"
)

func seqLevels(g graph.Graph, src graph.Vertex) []int32 {
	n := g.NumVertices()
	level := make([]int32, n)
	for i := range level {
		level[i] = Unreached
	}
	level[src] = 0
	queue := []graph.Vertex{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.OutNeighbors(v, func(u graph.Vertex, w graph.Weight) bool {
			if level[u] == Unreached {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
			return true
		})
	}
	return level
}

func TestBFSMatchesSequential(t *testing.T) {
	graphs := map[string]graph.Graph{
		"rmat":       gen.RMAT(1<<11, 16000, true, 1),
		"grid":       gen.Grid2D(40, 35),
		"path":       gen.Path(500),
		"star":       gen.Star(200),
		"er-dir":     gen.ErdosRenyi(800, 4000, false, 2),
		"compressed": compress.FromCSR(gen.RMAT(1<<10, 8000, true, 3)),
	}
	for name, g := range graphs {
		want := seqLevels(g, 0)
		got := BFS(g, 0)
		for v := range want {
			if got.Level[v] != want[v] {
				t.Fatalf("%s: level[%d]=%d want %d", name, v, got.Level[v], want[v])
			}
		}
	}
}

func TestParentsFormTree(t *testing.T) {
	g := gen.RMAT(1<<10, 8000, true, 7)
	res := BFS(g, 0)
	for v := range res.Level {
		switch {
		case res.Level[v] == Unreached:
			if res.Parent[v] != graph.NilVertex {
				t.Fatalf("unreached %d has parent", v)
			}
		case res.Level[v] == 0:
			if v != 0 {
				t.Fatalf("level 0 at non-source %d", v)
			}
		default:
			p := res.Parent[v]
			if p == graph.NilVertex {
				t.Fatalf("reached %d has no parent", v)
			}
			if res.Level[p] != res.Level[v]-1 {
				t.Fatalf("parent level of %d: %d vs %d", v, res.Level[p], res.Level[v])
			}
		}
	}
}

func TestEccentricityOnPath(t *testing.T) {
	g := gen.Path(100)
	if e := Eccentricity(g, 0); e != 99 {
		t.Fatalf("path ecc=%d want 99", e)
	}
	if e := Eccentricity(g, 50); e != 50 {
		t.Fatalf("mid ecc=%d want 50", e)
	}
}

func TestRoundsEqualsEccentricityPlusOne(t *testing.T) {
	g := gen.Grid2D(10, 10)
	res := BFS(g, 0)
	var ecc int32
	for _, l := range res.Level {
		if l > ecc {
			ecc = l
		}
	}
	if res.Rounds != int64(ecc)+1 {
		t.Fatalf("rounds=%d ecc=%d", res.Rounds, ecc)
	}
}

func TestSourceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BFS(gen.Path(5), 10)
}
