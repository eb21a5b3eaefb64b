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
	e := FromSparse(10, nil)
	if !e.IsEmpty() || e.Size() != 0 {
		t.Fatal("empty FromSparse misbehaves")
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
		nbrs, _ := g.OutAdj(v, nil)
		for _, u := range nbrs {
			if level[u] == -1 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}

// TestEdgeMapBFSMatchesSequential runs BFS by EdgeMap, whose c turns
// false at a target's first write, so the dense arm's early exit runs
// (the star's first round is dense), on CSR and compressed inputs.
func TestEdgeMapBFSMatchesSequential(t *testing.T) {
	graphs := map[string]graph.Graph{
		"rmat":            gen.RMAT(1<<11, 16000, true, 3),
		"grid":            gen.Grid2D(30, 40),
		"star":            gen.Star(100),
		"cycle":           gen.Cycle(57),
		"rmat-compressed": compress.FromCSR(gen.RMAT(1<<11, 16000, true, 3)),
		"star-compressed": compress.FromCSR(gen.Star(100)),
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
	out := EdgeMap(g, FromSparse(10, nil),
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

// TestEdgeMapWriteMin walks one round of Algorithm 2's relaxation by
// hand: the targets a round lowers come back once each with their
// pre-round distance, the second lowering of a vertex counts but does
// not repeat it, a source lowered earlier in the round relaxes from its
// new distance, and every lowered distance carries the round flag.
func TestEdgeMapWriteMin(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(1)) // the round's order is U's
	g := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 0, V: 2, W: 1}, {U: 0, V: 4, W: 9},
		{U: 2, V: 1, W: 1}, {U: 2, V: 3, W: 1},
	}, graph.BuildOptions{Weighted: true})
	const far = 1 << 40
	dist := []int64{0, 10, 4, far, 9}
	var dst Tagged[uint64]
	tg, relaxed := EdgeMapWriteMin(g, FromSparse(5, []graph.Vertex{0, 2}), dist, &dst)
	// 0→1 (10 → 5), 0→2 (4 → 1), 0→4 (9: not lower), 2→1 from 2's new
	// distance (5 → 2), 2→3 (far → 2).
	if relaxed != 4 {
		t.Errorf("relaxed = %d, want 4", relaxed)
	}
	want := map[graph.Vertex]uint64{1: 10, 2: 4, 3: far}
	if tg.Size() != len(want) {
		t.Fatalf("%d outputs %v, want %v", tg.Size(), tg.IDs, want)
	}
	for i := 0; i < tg.Size(); i++ {
		if v, pre := tg.At(i); want[v] != pre {
			t.Errorf("output (%d, %d), want pre-round distance %d", v, pre, want[v])
		}
	}
	flagged := func(d uint64) int64 { return int64(RoundFlag | d) }
	if wantDist := []int64{0, flagged(2), flagged(1), flagged(2), 9}; !slices.Equal(dist, wantDist) {
		t.Errorf("dist = %x, want %x", dist, wantDist)
	}
	// A write that does not lower leaves the flag and the value alone.
	if _, lowered, first := WriteMin(dist, 1, 2); lowered || first || dist[1] != flagged(2) {
		t.Errorf("WriteMin of an equal distance: lowered=%t first=%t, dist %x", lowered, first, dist[1])
	}
}

// keepCount is the EdgeMapSum update that keeps every touched vertex
// with its count.
func keepCount(_ graph.Vertex, count uint32) (uint32, bool) { return count, true }

// admitAll is the EdgeMapSum condition that admits each of n vertices.
func admitAll(n int) Above {
	d := make([]uint32, n)
	for v := range d {
		d[v] = 1
	}
	return Above{D: d}
}

func TestEdgeMapSum(t *testing.T) {
	// Triangle 0-1-2 plus pendant 2-3: counting from frontier {0,1}
	// must give count 2 for vertex 2 and 1 for each of 0,1.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}},
		graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	var dst Tagged[uint32]
	tg := EdgeMapSum(g, FromSparse(4, []graph.Vertex{0, 1}), admitAll(4), keepCount, &dst)
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
	tg2 := EdgeMapSum(g, Single(4, 3), admitAll(4), keepCount, &dst)
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
	tg := EdgeMapSum(g, Single(8, 0), admitAll(8), func(v graph.Vertex, count uint32) (string, bool) {
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
	even := Above{D: []uint32{1, 0, 1, 0, 1}} // D[v] > 0 for even v
	tg := EdgeMapSum(g, Single(5, 0), even, keepCount, nil)
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
	nbrs, _ := g.OutAdj(0, nil)
	for _, u := range nbrs {
		if u%2 != 1 {
			t.Fatalf("packed-out neighbor %d survived", u)
		}
	}
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
				rem := make([]uint32, n) // admitted iff v mod call.mod > 0
				for v := range rem {
					rem[v] = uint32(v % call.mod)
				}
				want := map[graph.Vertex]uint32{}
				for _, src := range ids {
					for _, v := range csr.OutEdges(src) {
						if rem[v] > 0 {
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
				got := EdgeMapSum(g, u, Above{D: rem, K: 0}, func(v graph.Vertex, count uint32) (uint32, bool) {
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
		"EdgeMapFilterCount": func(dst *Tagged[uint32]) Tagged[uint32] {
			return EdgeMapFilterCount(base, u, func(_, d graph.Vertex) bool { return odd(d) }, dst)
		},
		"EdgeMapPack": func(dst *Tagged[uint32]) Tagged[uint32] {
			return EdgeMapPack(base.Clone(), u, func(s, d graph.Vertex) bool { return odd(s + d) }, dst)
		},
	}
	for name, run := range primitives {
		sameAcrossProcs(t, name, run)
	}
	// The odd vertices start at 0 and the even at 2²⁰ + v; no write
	// lowers an odd vertex, so which even ones a round lowers, and from
	// where, does not depend on the order the edges are relaxed in.
	odds := Frontier(base, parallel.PackIndices(n, func(v int) bool { return odd(graph.Vertex(v)) }))
	sameAcrossProcs(t, "EdgeMapWriteMin", func(dst *Tagged[uint64]) Tagged[uint64] {
		dist := make([]int64, n)
		for v := range dist {
			if !odd(graph.Vertex(v)) {
				dist[v] = 1<<20 + int64(v)
			}
		}
		tg, relaxed := EdgeMapWriteMin(base, odds, dist, dst)
		if relaxed < int64(tg.Size()) {
			t.Errorf("EdgeMapWriteMin at P=%d: %d lowering writes for %d lowered vertices", parallel.Procs(), relaxed, tg.Size())
		}
		return tg
	})
}

// sameAcrossProcs runs one primitive into one destination at P=1, then
// at P ∈ {2, 4}, and requires the forked arms to fork and return the
// pairs of the inline one. Values must fit in 32 bits.
func sameAcrossProcs[T uint32 | uint64](t *testing.T, name string, run func(dst *Tagged[T]) Tagged[T]) {
	t.Helper()
	pairs := func(tg Tagged[T]) []uint64 {
		out := make([]uint64, tg.Size())
		for i := range out {
			v, val := tg.At(i)
			out[i] = uint64(v)<<32 | uint64(val)
		}
		slices.Sort(out)
		return out
	}
	var dst Tagged[T]
	defer parallel.SetProcs(parallel.SetProcs(1))
	want := pairs(run(&dst))
	for _, p := range []int{2, 4} {
		parallel.SetProcs(p)
		before := parallel.ForkStats()
		got := pairs(run(&dst))
		if forked := parallel.ForkStats().Sub(before).Forked; forked == 0 {
			t.Errorf("%s at P=%d did not fork: the forked arm went untested", name, p)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s at P=%d: %d pairs that differ from the %d of P=1", name, p, len(got), len(want))
		}
	}
	if len(want) == 0 {
		t.Errorf("%s kept nothing: the comparison is vacuous", name)
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
	noTarget := Above{D: make([]uint32, leaves+1)}
	dist := make([]int64, leaves+1) // all zero: no write lowers one
	traversals := map[string]func(u VertexSubset){
		"EdgeMap": func(u VertexSubset) {
			EdgeMap(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) bool { return false }, EdgeMapOptions{NoDense: true})
		},
		"EdgeMapNoOutput": func(u VertexSubset) {
			EdgeMap(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) bool { return false }, EdgeMapOptions{NoDense: true, NoOutput: true})
		},
		"EdgeMapWriteMin":    func(u VertexSubset) { EdgeMapWriteMin(g, u, dist, nil) },
		"EdgeMapSum":         func(u VertexSubset) { EdgeMapSum(g, u, noTarget, keepCount, nil) },
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
