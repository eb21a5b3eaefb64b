package oracle

import (
	"testing"

	"julienne/internal/graph"
)

func sym(n int, pairs ...[2]graph.Vertex) *graph.CSR {
	edges := make([]graph.Edge, 0, len(pairs))
	for _, p := range pairs {
		edges = append(edges, graph.Edge{U: p[0], V: p[1]})
	}
	opt := graph.DefaultBuild
	opt.Symmetrize = true
	return graph.FromEdges(n, edges, opt)
}

// A triangle with a pendant vertex: the triangle is a 2-core, the
// pendant has coreness 1, and an isolated vertex has coreness 0.
func TestCorenessHand(t *testing.T) {
	g := sym(5, [2]graph.Vertex{0, 1}, [2]graph.Vertex{1, 2}, [2]graph.Vertex{0, 2},
		[2]graph.Vertex{2, 3})
	got := Coreness(g)
	want := []uint32{2, 2, 2, 1, 0}
	if err := Diff("coreness", got, want); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraHand(t *testing.T) {
	// 0 -> 1 (w 5), 0 -> 2 (w 1), 2 -> 1 (w 2): shortest 0->1 is 3.
	// Vertex 3 is unreachable.
	edges := []graph.Edge{
		{U: 0, V: 1, W: 5},
		{U: 0, V: 2, W: 1},
		{U: 2, V: 1, W: 2},
	}
	opt := graph.DefaultBuild
	opt.Weighted = true
	g := graph.FromEdges(4, edges, opt)
	got := Dijkstra(g, 0)
	want := []int64{0, 3, 1, Unreachable}
	if err := Diff("dijkstra", got, want); err != nil {
		t.Fatal(err)
	}
}

func TestBFSAndComponentsHand(t *testing.T) {
	// Path 0-1-2 plus edge 3-4: two components.
	g := sym(5, [2]graph.Vertex{0, 1}, [2]graph.Vertex{1, 2}, [2]graph.Vertex{3, 4})
	lvl := BFSLevels(g, 0)
	wantLvl := []int32{0, 1, 2, Unreached, Unreached}
	if err := Diff("bfs", lvl, wantLvl); err != nil {
		t.Fatal(err)
	}
	labels := Components(g)
	wantLab := []graph.Vertex{0, 0, 0, 3, 3}
	if err := Diff("cc", labels, wantLab); err != nil {
		t.Fatal(err)
	}
	// VerifyBFS must accept a valid parent tree and reject a broken one.
	parent := []graph.Vertex{graph.NilVertex, 0, 1, graph.NilVertex, graph.NilVertex}
	if err := VerifyBFS(g, 0, lvl, parent); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	parent[2] = 0 // 0 is not adjacent to 2
	if err := VerifyBFS(g, 0, lvl, parent); err == nil {
		t.Fatal("invalid parent accepted")
	}
}

func TestGreedySetCoverHand(t *testing.T) {
	// Sets 0..2 over elements 3..6. Set 0 covers {3,4,5}, set 1 covers
	// {5,6}, set 2 covers {3}. Greedy picks 0 then 1.
	edges := []graph.Edge{
		{U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5},
		{U: 1, V: 5}, {U: 1, V: 6},
		{U: 2, V: 3},
	}
	g := graph.FromEdges(7, edges, graph.DefaultBuild)
	chosen := GreedySetCover(g, 3)
	want := []bool{true, true, false}
	for s, c := range chosen {
		if c != want[s] {
			t.Fatalf("set %d: chosen=%v, want %v", s, c, want[s])
		}
	}
	if err := VerifyCover(g, 3, chosen, 0.01); err != nil {
		t.Fatalf("oracle cover rejected: %v", err)
	}
	// An invalid cover (only set 2) must be rejected.
	if err := VerifyCover(g, 3, []bool{false, false, true}, 0.01); err == nil {
		t.Fatal("invalid cover accepted")
	}
}

func TestDegenerateOracles(t *testing.T) {
	empty := graph.FromEdges(0, nil, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	if got := Coreness(empty); len(got) != 0 {
		t.Fatalf("coreness of empty graph has length %d", len(got))
	}
	if got := Components(empty); len(got) != 0 {
		t.Fatalf("components of empty graph has length %d", len(got))
	}
	one := sym(1)
	if got := Coreness(one); got[0] != 0 {
		t.Fatalf("singleton coreness = %d, want 0", got[0])
	}
	if got := BFSLevels(one, 0); got[0] != 0 {
		t.Fatalf("singleton BFS level = %d, want 0", got[0])
	}
}
