package graph

import (
	"fmt"
	"slices"
	"sort"

	"julienne/internal/parallel"
)

// Edge is one directed edge of an edge list, with an optional weight
// (ignored when building unweighted graphs).
type Edge struct {
	U, V Vertex
	W    Weight
}

// BuildOptions controls FromEdges.
type BuildOptions struct {
	// Weighted keeps edge weights; otherwise W fields are dropped.
	Weighted bool
	// Symmetrize inserts the reverse of every edge and marks the graph
	// undirected.
	Symmetrize bool
	// DropSelfLoops removes edges with U == V (the paper assumes no
	// self-edges, §2).
	DropSelfLoops bool
	// Dedup removes duplicate (U, V) pairs, keeping the first occurrence
	// (and its weight). The paper assumes no duplicate edges (§2).
	Dedup bool
}

// DefaultBuild matches the paper's graph assumptions: simple graphs with
// no self-loops or duplicate edges.
var DefaultBuild = BuildOptions{DropSelfLoops: true, Dedup: true}

// FromEdges builds a CSR over n vertices from an arbitrary edge list.
// The input slice is not modified. Adjacency lists come out sorted by
// neighbor id, which Dedup requires and which makes traversal order
// deterministic everywhere else.
//
// The entries sorted are the edges in input order, each followed by its
// reverse when symmetrizing, self-loops dropped if asked. Two stable
// counting sorts put them in (source, target) order, duplicates in
// input order: one by target into per-target buckets that keep only
// the source (and weight), then one by source that walks those buckets
// in target order and scatters straight into the CSR arrays. Work
// O(m + P·n), with length-(n+1) histograms, one per block.
func FromEdges(n int, edges []Edge, opt BuildOptions) *CSR {
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n))
		}
		if opt.Weighted && e.W < 0 {
			panic(fmt.Sprintf("graph: negative weight %d on edge (%d,%d)", e.W, e.U, e.V))
		}
	}
	nb := parallel.WorkersFor(int64(len(edges)))

	// Pass 1, by target: bucket v holds the sources of the entries
	// (·, v) in input order.
	block := func(b, total int) (int, int) { return b * total / nb, (b + 1) * total / nb }
	// One histogram of n+1 counters per block; the last stays 0, so an
	// exclusive scan ends in the total.
	hist := make([][]uint64, nb)
	for b := range hist {
		hist[b] = make([]uint64, n+1)
	}
	parallel.For(nb, 1, func(b int) {
		h := hist[b]
		lo, hi := block(b, len(edges))
		for _, e := range edges[lo:hi] {
			switch {
			case e.U != e.V && opt.Symmetrize:
				h[e.U]++
				h[e.V]++
			case e.U != e.V || !opt.DropSelfLoops:
				h[e.V]++
			}
		}
	})
	byTarget, total := cursors(hist)
	src := make([]Vertex, total)
	var srcW []Weight
	if opt.Weighted {
		srcW = make([]Weight, total)
	}
	parallel.For(nb, 1, func(b int) {
		next := hist[b]
		put := func(u, v Vertex, w Weight) {
			i := next[v]
			next[v]++
			src[i] = u
			if srcW != nil {
				srcW[i] = w
			}
		}
		lo, hi := block(b, len(edges))
		for _, e := range edges[lo:hi] {
			if e.U == e.V && opt.DropSelfLoops {
				continue
			}
			put(e.U, e.V, e.W)
			if e.U != e.V && opt.Symmetrize {
				put(e.V, e.U, e.W)
			}
		}
	})

	// Pass 2, by source: walking the target buckets in order appends
	// each source's neighbors already sorted.
	for _, h := range hist {
		clear(h)
	}
	parallel.For(nb, 1, func(b int) {
		h := hist[b]
		lo, hi := block(b, int(total))
		for _, u := range src[lo:hi] {
			h[u]++
		}
	})
	offsets, _ := cursors(hist)
	edg := make([]Vertex, total)
	var wgt []Weight
	if opt.Weighted {
		wgt = make([]Weight, total)
	}
	parallel.For(nb, 1, func(b int) {
		next := hist[b]
		lo, hi := block(b, int(total))
		// v is the target bucket holding position lo.
		v := sort.Search(n, func(x int) bool { return byTarget[x+1] > uint64(lo) })
		for i := lo; i < hi; i++ {
			for byTarget[v+1] <= uint64(i) {
				v++
			}
			u := src[i]
			j := next[u]
			next[u]++
			edg[j] = Vertex(v)
			if wgt != nil {
				wgt[j] = srcW[i]
			}
		}
	})
	src, srcW, hist = nil, nil, nil // collectable before dedup allocates
	if opt.Dedup {
		offsets, edg, wgt = dedup(n, offsets, edg, wgt)
	}
	return NewCSR(n, offsets, edg, wgt, opt.Symmetrize)
}

// cursors turns per-block key histograms into stable scatter cursors:
// afterwards hist[b][k] is where block b writes its first entry with
// key k, after every entry of a smaller key and every entry of key k
// in an earlier block. It returns the bucket starts (starts[k] is the
// first slot of key k, starts[n] the total) and the total.
func cursors(hist [][]uint64) ([]uint64, uint64) {
	starts := make([]uint64, len(hist[0]))
	parallel.For(len(starts), parallel.DefaultGrain, func(k int) {
		var s uint64
		for _, h := range hist {
			s += h[k]
		}
		starts[k] = s
	})
	total := parallel.Scan(starts, starts)
	parallel.For(len(starts), parallel.DefaultGrain, func(k int) {
		run := starts[k]
		for _, h := range hist {
			h[k], run = run, run+h[k]
		}
	})
	return starts, total
}

// dedup drops repeated neighbors from every adjacency list, which the
// sort leaves adjacent, keeping the first one and its weight. The
// arrays are compacted only if something was dropped.
func dedup(n int, offsets []uint64, edg []Vertex, wgt []Weight) ([]uint64, []Vertex, []Weight) {
	deg := make([]uint64, n+1)
	parallel.For(n, 64, func(u int) {
		lo, hi := offsets[u], offsets[u+1]
		if lo == hi {
			return
		}
		w := lo + 1
		for i := lo + 1; i < hi; i++ {
			if edg[i] != edg[w-1] {
				edg[w] = edg[i]
				if wgt != nil {
					wgt[w] = wgt[i]
				}
				w++
			}
		}
		deg[u] = w - lo
	})
	m := parallel.Scan(deg, deg)
	if m == uint64(len(edg)) {
		return offsets, edg, wgt
	}
	outEdg := make([]Vertex, m)
	var outWgt []Weight
	if wgt != nil {
		outWgt = make([]Weight, m)
	}
	parallel.For(n, 64, func(u int) {
		lo, k := offsets[u], deg[u+1]-deg[u]
		copy(outEdg[deg[u]:deg[u+1]], edg[lo:lo+k])
		if wgt != nil {
			copy(outWgt[deg[u]:deg[u+1]], wgt[lo:lo+k])
		}
	})
	return deg, outEdg, outWgt
}

// Symmetrized returns the undirected version of g: every directed edge
// appears in both directions, duplicates merged (keeping the weight of
// the first occurrence in u-then-v order). If g is already symmetric a
// clone is returned.
func Symmetrized(g *CSR) *CSR {
	if g.symmetric {
		return g.Clone()
	}
	edges := make([]Edge, 0, len(g.outEdg))
	for v := 0; v < g.n; v++ {
		vv := Vertex(v)
		nbrs := g.OutEdges(vv)
		wgts := g.OutWeights(vv)
		for i, u := range nbrs {
			var w Weight
			if wgts != nil {
				w = wgts[i]
			}
			edges = append(edges, Edge{U: vv, V: u, W: w})
		}
	}
	return FromEdges(g.n, edges, BuildOptions{
		Weighted:      g.Weighted(),
		Symmetrize:    true,
		DropSelfLoops: true,
		Dedup:         true,
	})
}

// Reweighted returns a copy of g whose edge weights are produced by
// w(u, v, i) for the i'th out-edge (u, v). For symmetric graphs callers
// should make w symmetric in (u, v) so both directions agree; the
// generators in internal/gen do this by hashing the unordered pair.
func Reweighted(g *CSR, w func(u, v Vertex) Weight) *CSR {
	c := g.Clone()
	wgt := make([]Weight, len(c.outEdg))
	parallel.For(c.n, 64, func(vi int) {
		v := Vertex(vi)
		lo, hi := c.outOff[v], c.outOff[v+1]
		for i := lo; i < hi; i++ {
			wgt[i] = w(v, c.outEdg[i])
		}
	})
	c.outWgt = wgt
	c.inOff, c.inEdg, c.inWgt = nil, nil, nil
	if c.symmetric {
		c.inOff, c.inEdg, c.inWgt = c.outOff, c.outEdg, c.outWgt
	}
	return c
}

// Validate checks CSR structural invariants; tests call it after builds
// and generators. It returns a descriptive error or nil.
func Validate(g *CSR) error {
	if len(g.outOff) != g.n+1 {
		return fmt.Errorf("offsets length %d, want %d", len(g.outOff), g.n+1)
	}
	if g.outOff[0] != 0 {
		return fmt.Errorf("offsets[0] = %d, want 0", g.outOff[0])
	}
	for v := 0; v < g.n; v++ {
		if g.outOff[v] > g.outOff[v+1] {
			return fmt.Errorf("offsets decrease at %d", v)
		}
	}
	if g.outOff[g.n] != uint64(len(g.outEdg)) {
		return fmt.Errorf("offsets[n] = %d, want %d", g.outOff[g.n], len(g.outEdg))
	}
	for v := 0; v < g.n; v++ {
		nbrs := g.OutEdges(Vertex(v))
		for i, u := range nbrs {
			if int(u) >= g.n {
				return fmt.Errorf("vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == Vertex(v) {
				return fmt.Errorf("self-loop at %d", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("adjacency of %d not strictly sorted at position %d", v, i)
			}
		}
	}
	if g.symmetric {
		// Every edge must have its reverse.
		for v := 0; v < g.n; v++ {
			for _, u := range g.OutEdges(Vertex(v)) {
				if !hasEdge(g, u, Vertex(v)) {
					return fmt.Errorf("missing reverse edge (%d,%d)", u, v)
				}
			}
		}
	}
	return nil
}

// hasEdge reports whether (u, v) is a live out-edge, by binary search
// over u's sorted adjacency.
func hasEdge(g *CSR, u, v Vertex) bool {
	nbrs := g.OutEdges(u)
	_, ok := slices.BinarySearch(nbrs, v)
	return ok
}
