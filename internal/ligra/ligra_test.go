package ligra

import (
	"sort"
	"sync/atomic"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/parallel"
)

func sortedIDs(ids []graph.Vertex) []graph.Vertex {
	out := append([]graph.Vertex(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestVertexSubsetBasics(t *testing.T) {
	s := Single(10, 3)
	if s.Size() != 1 || s.IsEmpty() || !s.Contains(3) || s.Contains(4) {
		t.Fatal("Single misbehaves")
	}
	e := Empty(10)
	if !e.IsEmpty() || e.Size() != 0 {
		t.Fatal("Empty misbehaves")
	}
	a := All(5)
	if a.Size() != 5 {
		t.Fatal("All misbehaves")
	}
	for v := graph.Vertex(0); v < 5; v++ {
		if !a.Contains(v) {
			t.Fatalf("All missing %d", v)
		}
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	ids := []graph.Vertex{2, 5, 7}
	s := FromSparse(10, ids)
	d := s.Dense()
	for v := 0; v < 10; v++ {
		want := v == 2 || v == 5 || v == 7
		if d[v] != want {
			t.Fatalf("dense[%d]=%v", v, d[v])
		}
	}
	s2 := FromDense(10, d)
	if s2.Size() != 3 {
		t.Fatalf("size=%d", s2.Size())
	}
	back := sortedIDs(s2.Sparse())
	for i, v := range []graph.Vertex{2, 5, 7} {
		if back[i] != v {
			t.Fatalf("round trip lost %d", v)
		}
	}
}

func TestForEachVisitsAll(t *testing.T) {
	s := FromSparse(100, []graph.Vertex{1, 50, 99})
	var sum int64
	s.ForEach(func(v graph.Vertex) { atomic.AddInt64(&sum, int64(v)) })
	if sum != 150 {
		t.Fatalf("sum=%d", sum)
	}
	d := FromDense(4, []bool{true, false, true, false})
	var count int64
	d.ForEach(func(v graph.Vertex) { atomic.AddInt64(&count, 1) })
	if count != 2 {
		t.Fatalf("count=%d", count)
	}
}

func TestTagged(t *testing.T) {
	tg := NewTagged(10, []graph.Vertex{1, 2}, []string{"a", "b"})
	if tg.Size() != 2 || tg.IsEmpty() {
		t.Fatal("Tagged size wrong")
	}
	v, val := tg.At(1)
	if v != 2 || val != "b" {
		t.Fatal("At wrong")
	}
	plain := tg.Untagged()
	if plain.Size() != 2 || !plain.Contains(1) {
		t.Fatal("Untagged wrong")
	}
}

func TestTagMap(t *testing.T) {
	s := FromSparse(10, []graph.Vertex{1, 2, 3, 4})
	tg := TagMap(s, func(v graph.Vertex) (uint32, bool) {
		return uint32(v * 10), v%2 == 0
	})
	if tg.Size() != 2 {
		t.Fatalf("size=%d", tg.Size())
	}
	for i := 0; i < tg.Size(); i++ {
		v, val := tg.At(i)
		if val != uint32(v*10) || v%2 != 0 {
			t.Fatalf("bad pair (%d,%d)", v, val)
		}
	}
}

func TestTagMapTagged(t *testing.T) {
	tg := NewTagged(10, []graph.Vertex{1, 2, 3}, []uint32{10, 20, 30})
	out := TagMapTagged(tg, func(v graph.Vertex, val uint32) (uint32, bool) {
		return val + 1, val >= 20
	})
	if out.Size() != 2 {
		t.Fatalf("size=%d", out.Size())
	}
	for i := 0; i < out.Size(); i++ {
		_, val := out.At(i)
		if val != 21 && val != 31 {
			t.Fatalf("val=%d", val)
		}
	}
}

// bfsLevels computes BFS levels via EdgeMap, exercising both traversal
// directions across rounds; the oracle is a sequential BFS.
func bfsLevels(g graph.Graph, src graph.Vertex, opt EdgeMapOptions) []int32 {
	n := g.NumVertices()
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := Single(n, src)
	for round := int32(1); !frontier.IsEmpty(); round++ {
		frontier = EdgeMap(g, frontier,
			func(v graph.Vertex) bool { return atomic.LoadInt32((*int32)(&level[v])) == -1 },
			func(s, d graph.Vertex, w graph.Weight) bool {
				return atomic.CompareAndSwapInt32(&level[d], -1, round)
			}, opt)
	}
	return level
}

func seqBFS(g graph.Graph, src graph.Vertex) []int32 {
	n := g.NumVertices()
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []graph.Vertex{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.OutNeighbors(v, func(u graph.Vertex, w graph.Weight) bool {
			if level[u] == -1 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
			return true
		})
	}
	return level
}

func TestEdgeMapBFSMatchesSequential(t *testing.T) {
	graphs := map[string]graph.Graph{
		"rmat":  gen.RMAT(1<<11, 16000, true, 3),
		"grid":  gen.Grid2D(30, 40),
		"star":  gen.Star(100),
		"cycle": gen.Cycle(57),
	}
	for name, g := range graphs {
		want := seqBFS(g, 0)
		for _, opt := range []EdgeMapOptions{{}, {NoDense: true}} {
			got := bfsLevels(g, 0, opt)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("%s (opt=%+v): level[%d]=%d want %d", name, opt, v, got[v], want[v])
				}
			}
		}
	}
}

func TestEdgeMapDenseDirected(t *testing.T) {
	// A graph dense enough to trigger the pull path: K_n-ish directed.
	n := 64
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				edges = append(edges, graph.Edge{U: graph.Vertex(i), V: graph.Vertex(j)})
			}
		}
	}
	g := graph.FromEdges(n, edges, graph.DefaultBuild)
	want := seqBFS(g, 0)
	got := bfsLevels(g, 0, EdgeMapOptions{})
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("level[%d]=%d want %d", v, got[v], want[v])
		}
	}
}

func TestEdgeMapEmptyFrontier(t *testing.T) {
	g := gen.Cycle(10)
	out := EdgeMap(g, Empty(10),
		func(graph.Vertex) bool { return true },
		func(s, d graph.Vertex, w graph.Weight) bool { return true },
		EdgeMapOptions{})
	if !out.IsEmpty() {
		t.Fatal("empty frontier produced output")
	}
}

func TestEdgeMapNoOutput(t *testing.T) {
	g := gen.Star(50)
	var visits int64
	out := EdgeMap(g, Single(50, 0),
		func(graph.Vertex) bool { return true },
		func(s, d graph.Vertex, w graph.Weight) bool {
			atomic.AddInt64(&visits, 1)
			return true
		}, EdgeMapOptions{NoOutput: true, NoDense: true})
	if !out.IsEmpty() {
		t.Fatal("NoOutput returned members")
	}
	if visits != 49 {
		t.Fatalf("visits=%d want 49", visits)
	}
}

func TestEdgeMapTagged(t *testing.T) {
	// Star from the hub: each leaf is claimed once with a value.
	g := gen.Star(10)
	claimed := make([]uint32, 10)
	tg := EdgeMapTagged(g, Single(10, 0),
		func(v graph.Vertex) bool { return v != 0 },
		func(s, d graph.Vertex, w graph.Weight) (uint32, bool) {
			if parallel.CASUint32(&claimed[d], 0, 1) {
				return uint32(d) * 2, true
			}
			return 0, false
		})
	if tg.Size() != 9 {
		t.Fatalf("size=%d want 9", tg.Size())
	}
	for i := 0; i < tg.Size(); i++ {
		v, val := tg.At(i)
		if val != uint32(v)*2 {
			t.Fatalf("val(%d)=%d", v, val)
		}
	}
}

func TestEdgeMapCount(t *testing.T) {
	// Triangle 0-1-2 plus pendant 2-3: counting from frontier {0,1}
	// must give count 2 for vertex 2 and 1 for each of 0,1.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}},
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	var scratch CountScratch
	tg := EdgeMapCount(g, FromSparse(4, []graph.Vertex{0, 1}),
		func(v graph.Vertex) bool { return true }, &scratch)
	got := map[graph.Vertex]uint32{}
	for i := 0; i < tg.Size(); i++ {
		v, c := tg.At(i)
		got[v] = c
	}
	want := map[graph.Vertex]uint32{0: 1, 1: 1, 2: 2}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for v, c := range want {
		if got[v] != c {
			t.Fatalf("count[%d]=%d want %d", v, got[v], c)
		}
	}
	// Scratch must be clean for reuse.
	tg2 := EdgeMapCount(g, Single(4, 3), func(graph.Vertex) bool { return true }, &scratch)
	if tg2.Size() != 1 {
		t.Fatalf("second call size=%d", tg2.Size())
	}
	v, c := tg2.At(0)
	if v != 2 || c != 1 {
		t.Fatalf("second call got (%d,%d)", v, c)
	}
}

func TestEdgeMapCountRespectsCond(t *testing.T) {
	g := gen.Star(5)
	var scratch CountScratch
	tg := EdgeMapCount(g, Single(5, 0),
		func(v graph.Vertex) bool { return v%2 == 0 }, &scratch)
	for i := 0; i < tg.Size(); i++ {
		v, _ := tg.At(i)
		if v%2 != 0 {
			t.Fatalf("cond violated: %d", v)
		}
	}
	if tg.Size() != 2 { // leaves 2 and 4
		t.Fatalf("size=%d want 2", tg.Size())
	}
}

func TestEdgeMapFilterCount(t *testing.T) {
	g := gen.Star(6) // hub 0 with leaves 1..5
	tg := EdgeMapFilterCount(g, Single(6, 0),
		func(src, dst graph.Vertex) bool { return dst >= 3 })
	if tg.Size() != 1 {
		t.Fatalf("size=%d", tg.Size())
	}
	v, c := tg.At(0)
	if v != 0 || c != 3 {
		t.Fatalf("got (%d,%d) want (0,3)", v, c)
	}
}

func TestEdgeMapPack(t *testing.T) {
	g := gen.Star(6)
	tg := EdgeMapPack(g, Single(6, 0),
		func(src, dst graph.Vertex) bool { return dst%2 == 1 })
	if tg.Size() != 1 {
		t.Fatalf("size=%d", tg.Size())
	}
	_, newDeg := tg.At(0)
	if newDeg != 3 { // leaves 1, 3, 5 survive
		t.Fatalf("newDeg=%d want 3", newDeg)
	}
	if g.OutDegree(0) != 3 {
		t.Fatalf("graph degree=%d want 3", g.OutDegree(0))
	}
	g.OutNeighbors(0, func(u graph.Vertex, w graph.Weight) bool {
		if u%2 != 1 {
			t.Fatalf("packed-out neighbor %d survived", u)
		}
		return true
	})
}

func TestEdgeMapOnWeightedGraph(t *testing.T) {
	g := gen.UniformWeights(gen.Grid2D(5, 5), 1, 10, 1)
	sawWeight := false
	EdgeMap(g, Single(25, 0),
		func(graph.Vertex) bool { return true },
		func(s, d graph.Vertex, w graph.Weight) bool {
			if w >= 1 && w < 10 {
				sawWeight = true
			}
			return false
		}, EdgeMapOptions{NoDense: true})
	if !sawWeight {
		t.Fatal("weights not passed through EdgeMap")
	}
}

func TestVertexMap(t *testing.T) {
	// Sparse input: F side-effects and filters.
	touched := make([]int32, 10)
	s := FromSparse(10, []graph.Vertex{1, 4, 7})
	out := VertexMap(s, func(v graph.Vertex) bool {
		atomic.AddInt32(&touched[v], 1)
		return v >= 4
	})
	if out.Size() != 2 || !out.Contains(4) || !out.Contains(7) || out.Contains(1) {
		t.Fatalf("VertexMap output wrong")
	}
	for v, c := range touched {
		want := int32(0)
		if v == 1 || v == 4 || v == 7 {
			want = 1
		}
		if c != want {
			t.Fatalf("F called %d times on %d", c, v)
		}
	}
	// Dense input.
	d := FromDense(6, []bool{true, true, false, true, false, false})
	out2 := VertexMap(d, func(v graph.Vertex) bool { return v%2 == 1 })
	if out2.Size() != 2 || !out2.Contains(1) || !out2.Contains(3) {
		t.Fatalf("dense VertexMap wrong: %v", out2.Sparse())
	}
}

func TestVertexFilter(t *testing.T) {
	s := FromSparse(10, []graph.Vertex{0, 2, 5, 9})
	out := VertexFilter(s, func(v graph.Vertex) bool { return v > 2 })
	if out.Size() != 2 || !out.Contains(5) || !out.Contains(9) {
		t.Fatal("sparse VertexFilter wrong")
	}
	d := FromDense(4, []bool{true, false, true, true})
	out2 := VertexFilter(d, func(v graph.Vertex) bool { return v != 2 })
	if out2.Size() != 2 || out2.Contains(2) || !out2.Contains(0) || !out2.Contains(3) {
		t.Fatal("dense VertexFilter wrong")
	}
}

func TestVertexForEach(t *testing.T) {
	var sum int64
	VertexForEach(FromSparse(10, []graph.Vertex{2, 3, 4}), func(v graph.Vertex) {
		atomic.AddInt64(&sum, int64(v))
	})
	if sum != 9 {
		t.Fatalf("sum=%d", sum)
	}
}

// TestFrontierCachesOutDegreeSum: the sum Frontier computes is the one
// a plain subset walks for, and a traversal of it does not walk again.
func TestFrontierCachesOutDegreeSum(t *testing.T) {
	g := gen.RMAT(1<<10, 1<<13, true, 5)
	ids := []graph.Vertex{3, 17, 512, 1000}
	var want int64
	for _, v := range ids {
		want += int64(g.OutDegree(v))
	}
	if got := FromSparse(g.NumVertices(), ids).OutDegreeSum(g); got != want {
		t.Fatalf("plain subset: OutDegreeSum = %d, want %d", got, want)
	}
	f := Frontier(g, ids)
	before := parallel.ForkStats()
	if got := f.OutDegreeSum(g); got != want {
		t.Fatalf("frontier: OutDegreeSum = %d, want %d", got, want)
	}
	if d := parallel.ForkStats().Sub(before); d != (parallel.ForkCounts{}) {
		t.Errorf("a cached OutDegreeSum ran %+v regions, want none", d)
	}
}

// TestSparseTraversalsForkOnWorkNotSize pins the cut-off at its users:
// every push traversal runs inline on a frontier whose |U| + Σ outdeg(U)
// is small, however many vertices that is, and through the helper pool
// on one that is large, however few.
func TestSparseTraversalsForkOnWorkNotSize(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(2))
	// A star has one vertex carrying all the work and many carrying none.
	const leaves = 1 << 15
	edges := make([]graph.Edge, 0, leaves)
	for v := 1; v <= leaves; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.Vertex(v)})
	}
	g := graph.Symmetrized(graph.FromEdges(leaves+1, edges, graph.BuildOptions{}))
	hub := []graph.Vertex{0}             // 1 vertex, 32768 edges
	rim := make([]graph.Vertex, 0, 2000) // 2000 vertices, 2000 edges
	for v := 1; v <= cap(rim); v++ {
		rim = append(rim, graph.Vertex(v))
	}
	all := func(graph.Vertex) bool { return true }
	var scratch CountScratch
	traversals := map[string]func(u VertexSubset){
		"EdgeMap": func(u VertexSubset) {
			EdgeMap(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) bool { return false }, EdgeMapOptions{NoDense: true})
		},
		"EdgeMapNoOutput": func(u VertexSubset) {
			EdgeMap(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) bool { return false }, EdgeMapOptions{NoDense: true, NoOutput: true})
		},
		"EdgeMapTagged": func(u VertexSubset) {
			EdgeMapTagged(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) (uint32, bool) { return 0, false })
		},
		"EdgeMapCount":       func(u VertexSubset) { EdgeMapCount(g, u, func(graph.Vertex) bool { return false }, &scratch) },
		"EdgeMapFilterCount": func(u VertexSubset) { EdgeMapFilterCount(g, u, func(_, _ graph.Vertex) bool { return true }) },
	}
	forks := func(traverse func(VertexSubset), ids []graph.Vertex) int64 {
		u := Frontier(g, ids)
		before := parallel.ForkStats()
		traverse(u)
		return parallel.ForkStats().Sub(before).Forked
	}
	for name, traverse := range traversals {
		if n := forks(traverse, rim); n != 0 {
			t.Errorf("%s over 2000 vertices of degree 1 forked %d regions, want 0", name, n)
		}
		// One vertex is one block: nothing to hand out, so still inline.
		if n := forks(traverse, hub); n != 0 {
			t.Errorf("%s over the hub alone forked %d regions, want 0", name, n)
		}
		if n := forks(traverse, append([]graph.Vertex{0}, rim[:7]...)); n != 1 {
			t.Errorf("%s over the hub and 7 leaves forked %d regions, want 1", name, n)
		}
	}
}
