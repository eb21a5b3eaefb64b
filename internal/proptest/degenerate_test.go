package proptest

import (
	"testing"

	"julienne/internal/algo/bfs"
	"julienne/internal/algo/cc"
	"julienne/internal/algo/densest"
	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/algo/triangles"
	"julienne/internal/graph"
	"julienne/internal/oracle"
)

// degenerateCase is one structurally degenerate input: the shapes that
// sit outside every random generator's typical output and historically
// break parallel graph code (empty universes, vertices with no edges,
// self-loops, parallel edges, multiple components).
type degenerateCase struct {
	name      string
	build     func() *graph.CSR
	symmetric bool // run the undirected-only algorithms too
}

func degenerateCases() []degenerateCase {
	sym := func(n int, dedup, dropLoops bool, pairs ...[2]graph.Vertex) *graph.CSR {
		edges := make([]graph.Edge, 0, len(pairs))
		for _, p := range pairs {
			edges = append(edges, graph.Edge{U: p[0], V: p[1], W: 1})
		}
		opt := graph.BuildOptions{Weighted: true, Symmetrize: true, Dedup: dedup, DropSelfLoops: dropLoops}
		return graph.FromEdges(n, edges, opt)
	}
	return []degenerateCase{
		{name: "empty", symmetric: true,
			build: func() *graph.CSR { return sym(0, true, true) }},
		{name: "single-vertex", symmetric: true,
			build: func() *graph.CSR { return sym(1, true, true) }},
		{name: "no-edges", symmetric: true,
			build: func() *graph.CSR { return sym(6, true, true) }},
		{name: "single-edge", symmetric: true,
			build: func() *graph.CSR { return sym(2, true, true, [2]graph.Vertex{0, 1}) }},
		{name: "isolated-vertices", symmetric: true,
			build: func() *graph.CSR {
				return sym(7, true, true, [2]graph.Vertex{1, 4}, [2]graph.Vertex{4, 5})
			}},
		{name: "self-loops", symmetric: true,
			build: func() *graph.CSR {
				return sym(3, true, false,
					[2]graph.Vertex{0, 0}, [2]graph.Vertex{1, 2}, [2]graph.Vertex{2, 2})
			}},
		{name: "duplicate-edges", symmetric: true,
			build: func() *graph.CSR {
				return sym(3, false, true,
					[2]graph.Vertex{0, 1}, [2]graph.Vertex{0, 1}, [2]graph.Vertex{1, 2})
			}},
		{name: "disconnected", symmetric: true,
			build: func() *graph.CSR {
				return sym(7, true, true,
					[2]graph.Vertex{0, 1}, [2]graph.Vertex{1, 2}, [2]graph.Vertex{0, 2},
					[2]graph.Vertex{4, 5}, [2]graph.Vertex{5, 6})
			}},
	}
}

// TestDegenerateGraphs runs every algorithm against its oracle on each
// degenerate input, on both representations. The oracles define degree
// semantics for self-loops and parallel edges (whatever OutDegree and
// OutNeighbors report), so parallel implementations must agree on those
// inputs too, not merely avoid crashing.
func TestDegenerateGraphs(t *testing.T) {
	for _, tc := range degenerateCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, compressed := range []bool{false, true} {
				c := Case{Family: tc.name, Procs: 1, Compressed: compressed}
				g := tc.build()
				n := g.NumVertices()
				h := c.Wrap(g)

				if tc.symmetric {
					want := oracle.Coreness(g)
					if err := oracle.Diff("kcore.Coreness", kcore.Coreness(h, kcore.Options{}).Coreness, want); err != nil {
						t.Errorf("compressed=%t: %v", compressed, err)
					}
					if err := oracle.Diff("kcore.CorenessLigra", kcore.CorenessLigra(h).Coreness, want); err != nil {
						t.Errorf("compressed=%t: %v", compressed, err)
					}
					labels := cc.Components(h)
					if err := oracle.VerifyComponents(g, labels); err != nil {
						t.Errorf("compressed=%t: cc: %v", compressed, err)
					}
					// Peeling-adjacent algorithms must at least not crash
					// on degenerate shapes.
					triangles.Count(h)
					densest.Charikar(h)
				}

				if n > 0 {
					src := graph.Vertex(0)
					res := bfs.BFS(h, src)
					if err := oracle.VerifyBFS(g, src, res.Level, res.Parent); err != nil {
						t.Errorf("compressed=%t: bfs: %v", compressed, err)
					}
					wantD := oracle.Dijkstra(g, src)
					if err := oracle.Diff("sssp.DeltaStepping", sssp.DeltaStepping(h, src, 2, sssp.Options{}).Dist, wantD); err != nil {
						t.Errorf("compressed=%t: %v", compressed, err)
					}
					if err := oracle.Diff("sssp.WBFS", sssp.WBFS(h, src, sssp.Options{}).Dist, wantD); err != nil {
						t.Errorf("compressed=%t: %v", compressed, err)
					}
					if err := oracle.Diff("sssp.DijkstraHeap", sssp.DijkstraHeap(h, src).Dist, wantD); err != nil {
						t.Errorf("compressed=%t: %v", compressed, err)
					}
				}
			}
		})
	}
}

// TestDegenerateSetCover covers the set-cover corners the bipartite
// generator cannot produce: no sets, no elements, empty sets, and an
// element covered by every set.
func TestDegenerateSetCover(t *testing.T) {
	cases := []struct {
		name    string
		numSets int
		edges   []graph.Edge
		n       int
	}{
		{name: "no-sets", numSets: 0, n: 3},
		{name: "no-elements", numSets: 3, n: 3},
		{name: "empty-and-full-sets", numSets: 3, n: 5, edges: []graph.Edge{
			{U: 0, V: 3}, {U: 0, V: 4}, {U: 2, V: 4},
		}},
		{name: "element-in-every-set", numSets: 3, n: 4, edges: []graph.Edge{
			{U: 0, V: 3}, {U: 1, V: 3}, {U: 2, V: 3},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := graph.FromEdges(tc.n, tc.edges, graph.DefaultBuild)
			res := setcover.Approx(g, tc.numSets, setcover.Options{})
			if err := oracle.VerifyCover(g, tc.numSets, res.InCover, 0.01); err != nil {
				t.Fatalf("%v", err)
			}
		})
	}
}
