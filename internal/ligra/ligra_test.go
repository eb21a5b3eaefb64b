package ligra

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"julienne/internal/compress"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/parallel"
	"julienne/internal/rng"
)

func sortedIDs(ids []graph.Vertex) []graph.Vertex {
	out := append([]graph.Vertex(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestVertexSubsetBasics(t *testing.T) {
	s := FromSparse(10, []graph.Vertex{3})
	if s.Size() != 1 || s.IsEmpty() || !s.Contains(3) || s.Contains(4) {
		t.Fatal("a one-vertex FromSparse misbehaves")
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
	frontier := FromSparse(n, []graph.Vertex{src})
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
	out := EdgeMap(g, FromSparse(50, []graph.Vertex{0}),
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
	if _, lowered, first := writeMin(dist, 1, 2); lowered || first || dist[1] != flagged(2) {
		t.Errorf("writeMin of an equal distance: lowered=%t first=%t, dist %x", lowered, first, dist[1])
	}
}

// TestEdgeMapWriteMinIdentifierOrder: a frontier whose |U| + Σ outdeg(U)
// passes m/20 is relaxed in identifier order, each source once, and a
// smaller one in U's order. On the chain 0 → 1 → 2 the order decides
// what 2 ends at: relaxing 0 first lowers 1 to 5 before 1 relaxes 2.
func TestEdgeMapWriteMinIdentifierOrder(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(1))
	const far = 1 << 40
	flagged := func(d uint64) int64 { return int64(RoundFlag | d) }
	for _, tc := range []struct {
		name   string
		filler int // edges among vertices outside the chain, raising m
		u      []graph.Vertex
		// want is vertex 1's and 2's distance, then the output pairs in
		// the order they were first lowered.
		want    [2]int64
		pairs   []uint64
		relaxed int64
	}{
		// m/20 = 0: the frontier is past it. 1 listed twice is relaxed
		// once, after 0 lowered it; in U's order it would relax 2 from
		// 10 and again from 5, three lowering writes.
		{"past m/20", 0, []graph.Vertex{1, 0, 1}, [2]int64{flagged(5), flagged(6)}, []uint64{1<<32 | 10, 2<<32 | far}, 2},
		// m/20 = 5 > |U| + Σ outdeg(U) = 4: U's order, 1 before 0.
		{"below m/20", 100, []graph.Vertex{1, 0}, [2]int64{flagged(5), flagged(11)}, []uint64{2<<32 | far, 1<<32 | 10}, 2},
	} {
		edges := []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 1}}
		for i := 0; i < tc.filler; i++ {
			edges = append(edges, graph.Edge{U: 3, V: graph.Vertex(4 + i)})
		}
		g := graph.FromEdges(4+tc.filler, edges, graph.BuildOptions{Weighted: true})
		dist := make([]int64, g.NumVertices())
		dist[1], dist[2] = 10, far
		u := VertexSubset{n: g.NumVertices(), sparse: tc.u, size: len(tc.u)} // FromSparse refuses the duplicate under julienne_debug
		tg, relaxed := EdgeMapWriteMin(g, u, dist, nil)
		var pairs []uint64
		for i := 0; i < tg.Size(); i++ {
			v, pre := tg.At(i)
			pairs = append(pairs, uint64(v)<<32|pre)
		}
		if [2]int64{dist[1], dist[2]} != tc.want || !slices.Equal(pairs, tc.pairs) || relaxed != tc.relaxed {
			t.Errorf("%s: dist[1:3] = %x, pairs %x, %d lowering writes; want %x, %x, %d",
				tc.name, dist[1:3], pairs, relaxed, tc.want, tc.pairs, tc.relaxed)
		}
	}

	// A scrambled frontier of every other vertex, past m/20, on a
	// weighted and an unweighted graph. Every edge into v weighs
	// 1 + v%7 (0 unweighted), so in a closed round (the sources at 0) a
	// target is lowered by whichever edge reaches it first and by no
	// other: the forked arm's distances, pairs and count are then the
	// identifier-order relaxation's too. Source 0 is a hub with an edge
	// to every vertex, more than the destination's spare capacity and
	// than zeroWeights' length, so the leaf loops stop for a slot and
	// resume, and an unweighted adjacency is relaxed a run at a time.
	csr := gen.RMAT(1<<12, 1<<15, false, 3)
	n := csr.NumVertices()
	var edges []graph.Edge
	var ids []graph.Vertex
	for s := range n {
		nbrs, _ := csr.OutAdj(graph.Vertex(s), nil)
		for _, v := range nbrs {
			edges = append(edges, graph.Edge{U: graph.Vertex(s), V: v, W: graph.Weight(1 + v%7)})
		}
		edges = append(edges, graph.Edge{U: 0, V: graph.Vertex(s), W: graph.Weight(1 + s%7)})
		if s%2 == 0 {
			ids = append(ids, graph.Vertex(s))
		}
	}
	slices.SortFunc(ids, func(a, b graph.Vertex) int {
		return cmp.Compare(rng.UintNAt(3, uint64(a), 1<<62), rng.UintNAt(3, uint64(b), 1<<62))
	})
	for _, weighted := range []bool{true, false} {
		g := graph.FromEdges(n, edges, graph.BuildOptions{Weighted: weighted})
		if hub, _ := g.OutAdj(0, nil); len(hub) <= len(zeroWeights) {
			t.Fatalf("hub degree %d, want more than %d", len(hub), len(zeroWeights))
		}
		u := Frontier(g, ids)
		start := make([]int64, n)
		for v := range start {
			start[v] = 8 + int64(rng.UintNAt(4, uint64(v), 64))
		}
		for round, closed := range []bool{false, true} {
			if closed {
				for _, s := range ids {
					start[s] = 0
				}
			}
			want, wantPairs, wantRelaxed := relaxInOrder(g, sortedIDs(ids), start)
			procs := []int{1}
			if closed {
				procs = append(procs, 2, 4)
			}
			for _, p := range procs {
				parallel.SetProcs(p)
				dist := slices.Clone(start)
				// The two outputs start with unequal spare room, so
				// the smaller decides where a leaf stops.
				dst := Tagged[uint64]{IDs: make([]graph.Vertex, 0, 5), Vals: make([]uint64, 0, 11)}
				before := parallel.ForkStats()
				tg, relaxed := EdgeMapWriteMin(g, u, dist, &dst)
				forked := parallel.ForkStats().Sub(before).Forked > 0
				pairs := make([]uint64, tg.Size())
				for i := range pairs {
					v, pre := tg.At(i)
					pairs[i] = uint64(v)<<32 | pre
				}
				if forked {
					slices.Sort(pairs)
					slices.Sort(wantPairs)
				}
				if forked != (p > 1) || !slices.Equal(dist, want) || !slices.Equal(pairs, wantPairs) || relaxed != wantRelaxed {
					t.Errorf("weighted=%t, round %d at P=%d (forked=%t): distances equal=%t, %d pairs equal=%t, %d lowering writes; want identifier order's %d pairs, %d writes",
						weighted, round, p, forked, slices.Equal(dist, want), len(pairs), slices.Equal(pairs, wantPairs), relaxed, len(wantPairs), wantRelaxed)
				}
				if len(wantPairs) == 0 {
					t.Errorf("weighted=%t, round %d: nothing lowered; the case tests nothing", weighted, round)
				}
			}
			parallel.SetProcs(1)
		}
	}
}

// TestByIDClearsOnPanic: an id out of range panics while the frontier
// is being marked, and the bits already set are cleared, so the bitmap
// goes back to the scratch pool all zero.
func TestByIDClearsOnPanic(t *testing.T) {
	var o byID
	func() {
		defer func() { recover() }()
		o.sorted(64, []graph.Vertex{3, 40, 200})
		t.Error("an id past the bitmap did not panic")
	}()
	if w := o.words[:cap(o.words)]; slices.ContainsFunc(w, func(x uint64) bool { return x != 0 }) {
		t.Errorf("bitmap %x after the panic, want all zero", w)
	}
	if got := o.sorted(64, []graph.Vertex{9, 1, 9}); !slices.Equal(got, []graph.Vertex{1, 9}) {
		t.Errorf("sorted after the panic = %v, want [1 9]", got)
	}
}

// relaxInOrder relaxes the out-edges of ids one by one, in that order,
// each from its source's current distance, as EdgeMapWriteMin's plain
// arm does: it returns the distances (lowered ones flagged), the
// (vertex, pre-round distance) pairs in the order they were first
// lowered and the number of writes that lowered a distance. An
// unweighted graph's edges weigh 0.
func relaxInOrder(g *graph.CSR, ids []graph.Vertex, start []int64) ([]int64, []uint64, int64) {
	dist := slices.Clone(start)
	var pairs []uint64
	var relaxed int64
	for _, s := range ids {
		base := uint64(dist[s]) &^ RoundFlag
		nbrs, ws := g.OutAdj(s, nil)
		for j, v := range nbrs {
			old := uint64(dist[v])
			nd := base
			if ws != nil {
				nd += uint64(ws[j])
			}
			if nd < old&^RoundFlag {
				dist[v] = int64(RoundFlag | nd)
				relaxed++
				if old&RoundFlag == 0 {
					pairs = append(pairs, uint64(v)<<32|old)
				}
			}
		}
	}
	return dist, pairs, relaxed
}

func TestEdgeMapFilterCount(t *testing.T) {
	g := gen.Star(6) // hub 0 with leaves 1..5
	tg := EdgeMapFilterCount(g, FromSparse(6, []graph.Vertex{0}),
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
	tg := EdgeMapPack(g, FromSparse(6, []graph.Vertex{0}),
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
	EdgeMap(g, FromSparse(25, []graph.Vertex{0}),
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
	odds := Frontier(base, parallel.PackIndices(nil, n, func(v int) bool { return odd(graph.Vertex(v)) }))
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
	dist := make([]int64, leaves+1) // all zero: no write lowers one
	traversals := map[string]func(u VertexSubset){
		"EdgeMap": func(u VertexSubset) {
			EdgeMap(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) bool { return false }, EdgeMapOptions{NoDense: true})
		},
		"EdgeMapNoOutput": func(u VertexSubset) {
			EdgeMap(g, u, all, func(_, _ graph.Vertex, _ graph.Weight) bool { return false }, EdgeMapOptions{NoDense: true, NoOutput: true})
		},
		"EdgeMapWriteMin":    func(u VertexSubset) { EdgeMapWriteMin(g, u, dist, nil) },
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
