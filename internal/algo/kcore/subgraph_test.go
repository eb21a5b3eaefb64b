package kcore

import (
	"fmt"
	"slices"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
)

func TestExtractCoreTriangle(t *testing.T) {
	// Triangle (coreness 2) + pendant (coreness 1).
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}},
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	cores := Coreness(g, Options{}).Coreness
	sub := ExtractCore(g, cores, 2)
	if len(sub.Vertices) != 3 {
		t.Fatalf("2-core has %d vertices, want 3", len(sub.Vertices))
	}
	if sub.NumCores != 1 {
		t.Fatalf("NumCores=%d want 1", sub.NumCores)
	}
	// Every vertex of the 2-core has induced degree >= 2.
	for v := 0; v < sub.Graph.NumVertices(); v++ {
		if sub.Graph.OutDegree(graph.Vertex(v)) < 2 {
			t.Fatalf("induced degree %d < 2", sub.Graph.OutDegree(graph.Vertex(v)))
		}
	}
	// k=1 keeps everything; k=3 keeps nothing.
	if all := ExtractCore(g, cores, 1); len(all.Vertices) != 4 {
		t.Fatalf("1-core size %d", len(all.Vertices))
	}
	if none := ExtractCore(g, cores, 3); len(none.Vertices) != 0 || none.NumCores != 0 {
		t.Fatalf("3-core should be empty")
	}
}

func TestExtractCoreTwoSeparateCores(t *testing.T) {
	// Two disjoint triangles plus a pendant vertex: the 2-core has two
	// components (two distinct 2-cores); the pendant (coreness 1) is
	// excluded. (Note a path *bridging* the triangles would not
	// separate them: every bridge vertex would keep degree 2 and the
	// whole graph would be one 2-core.)
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle A
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}, // triangle B
		{U: 2, V: 6}, // pendant
	}
	g := graph.FromEdges(7, edges,
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	cores := Coreness(g, Options{}).Coreness
	sub := ExtractCore(g, cores, 2)
	if len(sub.Vertices) != 6 {
		t.Fatalf("2-core size %d want 6 (bridge vertex excluded)", len(sub.Vertices))
	}
	if sub.NumCores != 2 {
		t.Fatalf("NumCores=%d want 2", sub.NumCores)
	}
}

// TestExtractCoreInvariants is the property check on random graphs:
// the k-core subgraph has min induced degree >= k and contains exactly
// the vertices with coreness >= k.
func TestExtractCoreInvariants(t *testing.T) {
	g := gen.RMAT(1<<10, 10000, true, 3)
	cores := Coreness(g, Options{}).Coreness
	kmax := MaxCoreness(cores)
	for _, k := range []uint32{1, 2, kmax / 2, kmax} {
		sub := ExtractCore(g, cores, k)
		wantSize := 0
		for _, c := range cores {
			if c >= k {
				wantSize++
			}
		}
		if len(sub.Vertices) != wantSize {
			t.Fatalf("k=%d: size %d want %d", k, len(sub.Vertices), wantSize)
		}
		if err := graph.Validate(sub.Graph); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for v := 0; v < sub.Graph.NumVertices(); v++ {
			if sub.Graph.OutDegree(graph.Vertex(v)) < int(k) {
				t.Fatalf("k=%d: vertex %d has induced degree %d",
					k, v, sub.Graph.OutDegree(graph.Vertex(v)))
			}
		}
		// Coreness of the subgraph's vertices is >= k when recomputed.
		subCores := Coreness(sub.Graph, Options{}).Coreness
		for v, c := range subCores {
			if c < k {
				t.Fatalf("k=%d: recomputed coreness %d < k at %d", k, c, v)
			}
		}
	}
}

func TestExtractCoreWeighted(t *testing.T) {
	g := gen.UniformWeights(gen.Complete(5), 1, 10, 1)
	cores := Coreness(g, Options{}).Coreness
	sub := ExtractCore(g, cores, 4)
	if !sub.Graph.Weighted() {
		t.Fatal("weights lost")
	}
	if sub.Graph.NumVertices() != 5 {
		t.Fatal("K5 4-core should be whole graph")
	}
}

func TestExtractCorePanics(t *testing.T) {
	g := gen.Complete(3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad coreness slice")
		}
	}()
	ExtractCore(g, []uint32{1}, 1)
}

// extractCoreReference is the induced subgraph as ExtractCore built it
// before it filled the CSR in place: an edge list of the kept
// neighbours, sorted and deduplicated by graph.FromEdges, then copied
// into a CSR flagged undirected.
func extractCoreReference(g graph.Graph, coreness []uint32, k uint32) *graph.CSR {
	n := g.NumVertices()
	renum := make([]graph.Vertex, n)
	var kept int
	for v := range renum {
		renum[v] = graph.NilVertex
		if coreness[v] >= k {
			renum[v] = graph.Vertex(kept)
			kept++
		}
	}
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		if renum[v] == graph.NilVertex {
			continue
		}
		nbrs, ws := g.OutAdj(graph.Vertex(v), nil)
		for i, u := range nbrs {
			if renum[u] != graph.NilVertex {
				e := graph.Edge{U: renum[v], V: renum[u]}
				if ws != nil {
					e.W = ws[i]
				}
				edges = append(edges, e)
			}
		}
	}
	built := graph.FromEdges(kept, edges, graph.BuildOptions{Weighted: g.Weighted(), DropSelfLoops: true, Dedup: true})
	offsets := make([]uint64, kept+1)
	var adj []graph.Vertex
	var wgt []graph.Weight
	if g.Weighted() {
		wgt = []graph.Weight{}
	}
	for v := 0; v < kept; v++ {
		adj = append(adj, built.OutEdges(graph.Vertex(v))...)
		if wgt != nil {
			wgt = append(wgt, built.OutWeights(graph.Vertex(v))...)
		}
		offsets[v+1] = uint64(len(adj))
	}
	return graph.NewCSR(kept, offsets, adj, wgt, true)
}

// sameCSR fails t unless a and b agree on every offset, edge and
// weight, on Weighted and on Symmetric.
func sameCSR(t *testing.T, name string, got, want *graph.CSR) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() ||
		got.Weighted() != want.Weighted() || got.Symmetric() != want.Symmetric() {
		t.Fatalf("%s: n=%d m=%d weighted=%v symmetric=%v, want n=%d m=%d weighted=%v symmetric=%v", name,
			got.NumVertices(), got.NumEdges(), got.Weighted(), got.Symmetric(),
			want.NumVertices(), want.NumEdges(), want.Weighted(), want.Symmetric())
	}
	for v := 0; v < got.NumVertices(); v++ {
		vv := graph.Vertex(v)
		if !slices.Equal(got.OutEdges(vv), want.OutEdges(vv)) || !slices.Equal(got.OutWeights(vv), want.OutWeights(vv)) {
			t.Fatalf("%s: vertex %d has %v %v, want %v %v", name, v,
				got.OutEdges(vv), got.OutWeights(vv), want.OutEdges(vv), want.OutWeights(vv))
		}
	}
}

// TestExtractCoreMatchesEdgeListBuild pins the in-place CSR build to
// the edge-list build it replaced, on every generator family (directed
// ones symmetrized), weighted and not, at k = 1, 2, kmax/2 and kmax.
func TestExtractCoreMatchesEdgeListBuild(t *testing.T) {
	for _, fam := range gen.Families() {
		g := fam.Build(300, 2400, 7)
		if !g.Symmetric() {
			g = graph.Symmetrized(g)
		}
		for _, weighted := range []bool{false, true} {
			if weighted {
				g = gen.UniformWeights(g, 1, 100, 7)
			}
			cores := CorenessBZ(g)
			kmax := MaxCoreness(cores)
			for _, k := range []uint32{1, 2, kmax / 2, kmax} {
				name := fmt.Sprintf("%s/weighted=%v/k=%d", fam.Name, weighted, k)
				sameCSR(t, name, ExtractCore(g, cores, k).Graph, extractCoreReference(g, cores, k))
			}
		}
	}
}

// TestExtractCoreDropsSelfLoopsAndDuplicates: an input whose sorted
// lists hold a self-loop and a repeated neighbour (with a different
// weight) induces the same subgraph as the edge-list build, which drops
// the loop and keeps the first weight.
func TestExtractCoreDropsSelfLoopsAndDuplicates(t *testing.T) {
	// K4 plus a self-loop at 0 and the edge {0, 1} twice.
	offsets := []uint64{0, 5, 9, 12, 15}
	adj := []graph.Vertex{0, 1, 1, 2, 3, 0, 0, 2, 3, 0, 1, 3, 0, 1, 2}
	wgt := []graph.Weight{9, 4, 8, 1, 1, 4, 8, 1, 1, 1, 1, 1, 1, 1, 1}
	for _, weights := range [][]graph.Weight{nil, wgt} {
		g := graph.NewCSR(4, offsets, adj, weights, true)
		cores := []uint32{3, 3, 3, 1}
		for _, k := range []uint32{1, 3} {
			name := fmt.Sprintf("weighted=%v/k=%d", weights != nil, k)
			sub := ExtractCore(g, cores, k)
			sameCSR(t, name, sub.Graph, extractCoreReference(g, cores, k))
			if err := graph.Validate(sub.Graph); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
