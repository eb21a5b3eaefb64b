package ligra

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"julienne/internal/compress"
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
	}, nil)
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
	}, nil)
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
			if atomic.CompareAndSwapUint32(&claimed[d], 0, 1) {
				return uint32(d) * 2, true
			}
			return 0, false
		}, nil)
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

// keepCount is the EdgeMapSum update that keeps every touched vertex
// with its count.
func keepCount(_ graph.Vertex, count uint32) (uint32, bool) { return count, true }

func TestEdgeMapSum(t *testing.T) {
	// Triangle 0-1-2 plus pendant 2-3: counting from frontier {0,1}
	// must give count 2 for vertex 2 and 1 for each of 0,1.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}},
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	var dst Tagged[uint32]
	tg := EdgeMapSum(g, FromSparse(4, []graph.Vertex{0, 1}),
		func(v graph.Vertex) bool { return true }, keepCount, &dst)
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
	// The destination's counters must be clean for reuse.
	for v, c := range dst.counts {
		if c != 0 {
			t.Fatalf("counter of %d left at %d", v, c)
		}
	}
	tg2 := EdgeMapSum(g, Single(4, 3), func(graph.Vertex) bool { return true }, keepCount, &dst)
	if tg2.Size() != 1 {
		t.Fatalf("second call size=%d", tg2.Size())
	}
	v, c := tg2.At(0)
	if v != 2 || c != 1 {
		t.Fatalf("second call got (%d,%d)", v, c)
	}
}

// TestEdgeMapSumUpdateFilters: update sees every touched vertex once
// and only the pairs it keeps come back, with its values.
func TestEdgeMapSumUpdateFilters(t *testing.T) {
	g := gen.Star(8) // hub 0 with leaves 1..7
	calls := make([]int32, 8)
	tg := EdgeMapSum(g, Single(8, 0), nil, func(v graph.Vertex, count uint32) (string, bool) {
		atomic.AddInt32(&calls[v], 1)
		return fmt.Sprint(v, "x", count), v%2 == 1
	}, nil)
	if tg.Size() != 4 {
		t.Fatalf("size=%d want 4", tg.Size())
	}
	for i := 0; i < tg.Size(); i++ {
		if v, val := tg.At(i); v%2 != 1 || val != fmt.Sprint(v, "x", 1) {
			t.Fatalf("bad pair (%d,%q)", v, val)
		}
	}
	for v, c := range calls {
		if want := int32(min(v, 1)); c != want {
			t.Fatalf("update ran %d times on %d, want %d", c, v, want)
		}
	}
}

func TestEdgeMapSumRespectsCond(t *testing.T) {
	g := gen.Star(5)
	tg := EdgeMapSum(g, Single(5, 0),
		func(v graph.Vertex) bool { return v%2 == 0 }, keepCount, nil)
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
		func(src, dst graph.Vertex) bool { return dst >= 3 }, nil)
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
		func(src, dst graph.Vertex) bool { return dst%2 == 1 }, nil)
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

// TestOutDegreeSumBothArms: a sparse subset below the fork cut-off is
// summed by a plain loop and one above it by parallel.Sum; both give
// the sum of the members' degrees, on every family and at every P.
func TestOutDegreeSumBothArms(t *testing.T) {
	graphs := map[string]graph.Graph{"rmat-16k": gen.RMAT(1<<14, 1<<16, true, 5)} // all of it is above the cut-off
	for _, fam := range gen.Families() {
		graphs[fam.Name] = fam.Build(200, 800, 5)
	}
	for name, g := range graphs {
		n := g.NumVertices()
		for _, ids := range [][]graph.Vertex{All(n).Sparse(), All(n).Sparse()[:n/3]} {
			var want int64
			for _, v := range ids {
				want += int64(g.OutDegree(v))
			}
			for _, p := range []int{1, 2, 4} {
				old := parallel.SetProcs(p)
				got := FromSparse(n, ids).OutDegreeSum(g)
				cached := Frontier(g, ids).OutDegreeSum(g)
				parallel.SetProcs(old)
				if got != want || cached != want {
					t.Errorf("%s, |U|=%d, P=%d: OutDegreeSum = %d, through Frontier %d, want %d", name, len(ids), p, got, cached, want)
				}
			}
		}
	}
}

// TestEdgeMapSumForkedArms drives EdgeMapSum through its forked
// regions — pass 1 always, pass 2 when enough vertices were touched —
// and holds every P against a sequential count followed by update, on
// both representations, with one destination reused over a growing
// then shrinking frontier.
func TestEdgeMapSumForkedArms(t *testing.T) {
	csr := gen.RMAT(1<<14, 1<<17, true, 7)
	n := csr.NumVertices()
	for name, g := range map[string]graph.Graph{"csr": csr, "compressed": compress.FromCSR(csr)} {
		for _, p := range []int{1, 2, 4} {
			old := parallel.SetProcs(p)
			var dst Tagged[uint32]
			arms := map[int64]bool{}
			// Inline, both passes forked, the first only (under half of
			// the vertices are admitted, so under the cut-off touched).
			for _, call := range []struct{ stride, mod int }{{512, 5}, {1, 5}, {1, 2}} {
				stride := call.stride
				var ids []graph.Vertex
				for v := stride - 1; v < n; v += stride { // the hubs are the low ids
					ids = append(ids, graph.Vertex(v))
				}
				admitted := func(v graph.Vertex) bool { return int(v)%call.mod != 0 }
				want := map[graph.Vertex]uint32{}
				for _, src := range ids {
					for _, v := range csr.OutEdges(src) {
						if admitted(v) {
							want[v]++
						}
					}
				}
				touched := len(want)
				for v, count := range want {
					if (v+count)%3 == 0 {
						delete(want, v)
					}
				}
				calls := make([]int32, n)
				u := Frontier(g, ids) // carries its degree sum: the call below walks nothing
				var regions int64     // pass 2 forks only behind a forked pass 1
				if parallel.WorkersFor(int64(len(ids))+u.OutDegreeSum(g)) > 1 {
					regions = 1 + int64(min(parallel.WorkersFor(int64(touched)), 2)-1)
				}
				arms[regions] = true
				before := parallel.ForkStats()
				got := EdgeMapSum(g, u, admitted, func(v graph.Vertex, count uint32) (uint32, bool) {
					atomic.AddInt32(&calls[v], 1)
					return count, (v+count)%3 != 0
				}, &dst)
				if forked := parallel.ForkStats().Sub(before).Forked; forked != regions {
					t.Errorf("%s P=%d call %v: %d forked regions, want %d", name, p, call, forked, regions)
				}
				if got.Size() != len(want) || len(got.Vals) != len(got.IDs) {
					t.Fatalf("%s P=%d call %v: %d ids, %d values, want %d pairs", name, p, call, len(got.IDs), len(got.Vals), len(want))
				}
				for i := 0; i < got.Size(); i++ {
					if v, count := got.At(i); want[v] != count {
						t.Fatalf("%s P=%d call %v: pair (%d, %d), want count %d", name, p, call, v, count, want[v])
					}
				}
				ran := 0
				for v, k := range calls {
					if k > 1 {
						t.Fatalf("%s P=%d call %v: update ran %d times on %d", name, p, call, k, v)
					}
					ran += int(k)
				}
				if ran != touched {
					t.Fatalf("%s P=%d call %v: update ran on %d vertices, %d were touched", name, p, call, ran, touched)
				}
				for v, c := range dst.counts {
					if c != 0 {
						t.Fatalf("%s P=%d call %v: counter of %d left at %d", name, p, call, v, c)
					}
				}
			}
			parallel.SetProcs(old)
			if p > 1 && len(arms) != 3 {
				t.Errorf("%s P=%d: the three frontiers took the arms %v, want one each of 0, 1 and 2 forked regions", name, p, arms)
			}
		}
	}
}

// TestTaggedPrimitivesSameAcrossProcs: the forked arm of every
// primitive that fills a destination returns the pairs its inline arm
// does (in any order), into a destination the inline arm used before.
func TestTaggedPrimitivesSameAcrossProcs(t *testing.T) {
	base := gen.RMAT(1<<14, 1<<17, true, 7)
	n := base.NumVertices()
	u := Frontier(base, All(n).Sparse())
	degrees := EdgeMapFilterCount(base, u, func(_, _ graph.Vertex) bool { return true }, nil)
	odd := func(v graph.Vertex) bool { return v%2 == 1 }
	primitives := map[string]func(dst *Tagged[uint32]) Tagged[uint32]{
		"TagMap": func(dst *Tagged[uint32]) Tagged[uint32] {
			return TagMap(u, func(v graph.Vertex) (uint32, bool) { return v * 3, odd(v) }, dst)
		},
		"TagMapTagged": func(dst *Tagged[uint32]) Tagged[uint32] {
			return TagMapTagged(degrees, func(v graph.Vertex, deg uint32) (uint32, bool) { return deg + v, !odd(v) }, dst)
		},
		"EdgeMapTagged": func(dst *Tagged[uint32]) Tagged[uint32] {
			claimed := make([]uint32, n)
			return EdgeMapTagged(base, u, odd, func(_, d graph.Vertex, _ graph.Weight) (uint32, bool) {
				return d + 1, atomic.CompareAndSwapUint32(&claimed[d], 0, 1)
			}, dst)
		},
		"EdgeMapFilterCount": func(dst *Tagged[uint32]) Tagged[uint32] {
			return EdgeMapFilterCount(base, u, func(_, d graph.Vertex) bool { return odd(d) }, dst)
		},
		"EdgeMapPack": func(dst *Tagged[uint32]) Tagged[uint32] {
			return EdgeMapPack(base.Clone(), u, func(s, d graph.Vertex) bool { return odd(s + d) }, dst)
		},
	}
	pairs := func(tg Tagged[uint32]) []uint64 {
		out := make([]uint64, tg.Size())
		for i := range out {
			v, val := tg.At(i)
			out[i] = uint64(v)<<32 | uint64(val)
		}
		slices.Sort(out)
		return out
	}
	for name, run := range primitives {
		var dst Tagged[uint32]
		old := parallel.SetProcs(1)
		want := pairs(run(&dst))
		for _, p := range []int{2, 4} {
			parallel.SetProcs(p)
			before := parallel.ForkStats()
			got := pairs(run(&dst))
			if forked := parallel.ForkStats().Sub(before).Forked; forked == 0 {
				t.Errorf("%s at P=%d over %d vertices did not fork: the forked arm went untested", name, p, n)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s at P=%d: %d pairs that differ from the %d of P=1", name, p, len(got), len(want))
			}
		}
		parallel.SetProcs(old)
		if len(want) == 0 {
			t.Errorf("%s kept nothing: the comparison is vacuous", name)
		}
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
	traversals := map[string]func(u VertexSubset){
		"EdgeMap": func(u VertexSubset) {
			EdgeMap(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) bool { return false }, EdgeMapOptions{NoDense: true})
		},
		"EdgeMapNoOutput": func(u VertexSubset) {
			EdgeMap(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) bool { return false }, EdgeMapOptions{NoDense: true, NoOutput: true})
		},
		"EdgeMapTagged": func(u VertexSubset) {
			EdgeMapTagged(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) (uint32, bool) { return 0, false }, nil)
		},
		"EdgeMapSum":         func(u VertexSubset) { EdgeMapSum(g, u, func(graph.Vertex) bool { return false }, keepCount, nil) },
		"EdgeMapFilterCount": func(u VertexSubset) { EdgeMapFilterCount(g, u, func(_, _ graph.Vertex) bool { return true }, nil) },
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
