package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"julienne/internal/parallel"
)

// CSR is the compressed-sparse-row graph. Out-adjacency is always
// present; for directed graphs the in-adjacency (transpose) is built on
// demand and cached, since only the dense/pull edge-map traversal needs
// it. A symmetric CSR aliases its in-adjacency to its out-adjacency.
//
// CSR additionally supports in-place out-edge packing (PackOut), which
// approximate set cover uses to drop edges to covered elements: each
// vertex's live adjacency is the prefix of its CSR range of length
// outDeg[v], and m tracks the total live edge count.
type CSR struct {
	n         int
	m         atomic.Int64 // live directed edge count (PackOut decrements it concurrently)
	outOff    []uint64     // len n+1; outOff[v]..outOff[v+1] bound v's range
	outEdg    []Vertex
	outWgt    []Weight // nil for unweighted graphs
	outDeg    []uint32 // live out-degree (= range length until packed)
	inOff     []uint64 // nil until transposed (aliases out* if symmetric)
	inEdg     []Vertex
	inWgt     []Weight
	inOnce    sync.Once // guards the lazy transpose build
	symmetric bool
	packed    atomic.Bool // set once PackOut has run (invalidates transpose)
}

var (
	_ Graph  = (*CSR)(nil)
	_ Packer = (*CSR)(nil)
)

// NewCSR assembles a CSR from raw offset/edge arrays. offsets must have
// length n+1 with offsets[0] == 0 and offsets[n] == len(edges); weights
// must be nil or parallel to edges. The arrays are adopted, not copied.
func NewCSR(n int, offsets []uint64, edges []Vertex, weights []Weight, symmetric bool) *CSR {
	if len(offsets) != n+1 {
		panic(fmt.Sprintf("graph: offsets has length %d, want %d", len(offsets), n+1))
	}
	if offsets[0] != 0 || offsets[n] != uint64(len(edges)) {
		panic("graph: malformed offsets")
	}
	if weights != nil && len(weights) != len(edges) {
		panic("graph: weights not parallel to edges")
	}
	g := &CSR{
		n:      n,
		outOff: offsets, outEdg: edges, outWgt: weights,
		symmetric: symmetric,
	}
	g.m.Store(int64(len(edges)))
	g.outDeg = make([]uint32, n)
	parallel.For(n, parallel.DefaultGrain, func(v int) {
		g.outDeg[v] = uint32(offsets[v+1] - offsets[v])
	})
	if symmetric {
		g.inOff, g.inEdg, g.inWgt = offsets, edges, weights
	}
	return g
}

// NumVertices returns n.
func (g *CSR) NumVertices() int { return g.n }

// NumEdges returns the number of live directed edges (a symmetric graph
// stores each undirected edge twice; PackOut decrements the count).
func (g *CSR) NumEdges() int64 { return g.m.Load() }

// Symmetric reports whether the graph is undirected.
func (g *CSR) Symmetric() bool { return g.symmetric }

// Weighted reports whether edges carry weights.
func (g *CSR) Weighted() bool { return g.outWgt != nil }

// OutDegree returns the live out-degree of v.
func (g *CSR) OutDegree(v Vertex) int { return int(g.outDeg[v]) }

// InDegree returns the live in-degree of v: on a symmetric graph the
// live out-degree (the in-adjacency is the out-adjacency, PackOut
// included); on a directed graph it forces the transpose to be built.
func (g *CSR) InDegree(v Vertex) int {
	if g.symmetric {
		return int(g.outDeg[v])
	}
	g.ensureIn()
	return int(g.inOff[v+1] - g.inOff[v])
}

// OutEdges returns the live out-neighbor slice of v. The slice aliases
// the graph; callers must not modify it.
func (g *CSR) OutEdges(v Vertex) []Vertex {
	lo := g.outOff[v]
	return g.outEdg[lo : lo+uint64(g.outDeg[v])]
}

// OutWeights returns the out-edge weight slice of v parallel to
// OutEdges(v), or nil for unweighted graphs.
func (g *CSR) OutWeights(v Vertex) []Weight {
	if g.outWgt == nil {
		return nil
	}
	lo := g.outOff[v]
	return g.outWgt[lo : lo+uint64(g.outDeg[v])]
}

// OutAdj implements Graph: views of the graph's own arrays, buf unused.
func (g *CSR) OutAdj(v Vertex, _ *AdjBuf) ([]Vertex, []Weight) {
	return g.OutEdges(v), g.OutWeights(v)
}

// InAdj implements Graph. For directed graphs the transpose is built
// (once) on first use.
func (g *CSR) InAdj(v Vertex, _ *AdjBuf) ([]Vertex, []Weight) {
	if g.symmetric {
		return g.OutAdj(v, nil)
	}
	g.ensureIn()
	lo, hi := g.inOff[v], g.inOff[v+1]
	if g.inWgt == nil {
		return g.inEdg[lo:hi], nil
	}
	return g.inEdg[lo:hi], g.inWgt[lo:hi]
}

// OutNeighbors implements Graph.
func (g *CSR) OutNeighbors(v Vertex, f func(u Vertex, w Weight) bool) {
	eachAdj(g.OutEdges(v), g.OutWeights(v), f)
}

// InNeighbors implements Graph.
func (g *CSR) InNeighbors(v Vertex, f func(u Vertex, w Weight) bool) {
	nbrs, wgts := g.InAdj(v, nil)
	eachAdj(nbrs, wgts, f)
}

// eachAdj is the callback form over an adjacency slice pair.
func eachAdj(nbrs []Vertex, wgts []Weight, f func(u Vertex, w Weight) bool) {
	for i, u := range nbrs {
		var w Weight
		if wgts != nil {
			w = wgts[i]
		}
		if !f(u, w) {
			return
		}
	}
}

// ensureIn materializes the transposed adjacency for directed graphs.
// It is safe to call from concurrent traversals (the dense edge map's
// first pull over a directed graph triggers it from a parallel loop).
func (g *CSR) ensureIn() {
	g.inOnce.Do(func() {
		if g.inOff != nil {
			return // symmetric: aliased at construction
		}
		if g.packed.Load() {
			panic("graph: InNeighbors after PackOut on a directed graph")
		}
		g.inOff, g.inEdg, g.inWgt = transpose(g.n, g.outOff, g.outEdg, g.outWgt)
	})
}

// PackOut implements Packer: it compacts v's out-adjacency in place,
// keeping only neighbors for which keep returns true, and returns the
// new out-degree. Weights move with their edges. PackOut for distinct
// vertices may run concurrently (each touches only its own CSR range);
// the live edge count is maintained atomically.
func (g *CSR) PackOut(v Vertex, keep func(u Vertex) bool) int {
	if !g.packed.Load() {
		g.packed.Store(true)
	}
	lo := g.outOff[v]
	d := uint64(g.outDeg[v])
	k := lo
	if g.outWgt == nil {
		for i := lo; i < lo+d; i++ {
			if keep(g.outEdg[i]) {
				g.outEdg[k] = g.outEdg[i]
				k++
			}
		}
	} else {
		for i := lo; i < lo+d; i++ {
			if keep(g.outEdg[i]) {
				g.outEdg[k] = g.outEdg[i]
				g.outWgt[k] = g.outWgt[i]
				k++
			}
		}
	}
	newDeg := uint32(k - lo)
	if removed := uint32(d) - newDeg; removed > 0 {
		g.m.Add(-int64(removed))
	}
	g.outDeg[v] = newDeg
	return int(newDeg)
}

// Clone returns a deep copy of the graph (used by algorithms like set
// cover that mutate adjacency via PackOut).
func (g *CSR) Clone() *CSR {
	c := &CSR{n: g.n, symmetric: g.symmetric}
	c.m.Store(g.NumEdges())
	c.packed.Store(g.packed.Load())
	c.outOff = append([]uint64(nil), g.outOff...)
	c.outEdg = append([]Vertex(nil), g.outEdg...)
	if g.outWgt != nil {
		c.outWgt = append([]Weight(nil), g.outWgt...)
	}
	c.outDeg = append([]uint32(nil), g.outDeg...)
	if g.symmetric {
		c.inOff, c.inEdg, c.inWgt = c.outOff, c.outEdg, c.outWgt
	}
	return c
}

// MaxDegree returns the maximum out-degree, or 0 for an empty graph.
func (g *CSR) MaxDegree() int {
	if g.n == 0 {
		return 0
	}
	return parallel.Max(g.n, 0, func(v int) int { return int(g.outDeg[v]) })
}

// transpose builds the reversed CSR of (off, edg, wgt) over n vertices.
func transpose(n int, off []uint64, edg []Vertex, wgt []Weight) ([]uint64, []Vertex, []Weight) {
	m := len(edg)
	// inCnt[u] = in-degree of u for u < n, with a trailing zero so the
	// exclusive scan of the n+1 entries is exactly the CSR offsets
	// (inOff[n] == m). Atomic adds keep the histogram parallel without
	// per-worker scratch; contention is proportional to degree skew.
	inCnt := make([]uint64, n+1)
	parallel.For(m, parallel.DefaultGrain, func(i int) {
		atomic.AddUint64(&inCnt[edg[i]], 1)
	})
	inOff := make([]uint64, n+1)
	parallel.Scan(inOff, inCnt)
	inEdg := make([]Vertex, m)
	var inWgt []Weight
	if wgt != nil {
		inWgt = make([]Weight, m)
	}
	next := make([]uint64, n)
	copy(next, inOff[:n])
	parallel.For(n, 64, func(v int) {
		lo, hi := off[v], off[v+1]
		for i := lo; i < hi; i++ {
			u := edg[i]
			slot := atomic.AddUint64(&next[u], 1) - 1
			inEdg[slot] = Vertex(v)
			if wgt != nil {
				inWgt[slot] = wgt[i]
			}
		}
	})
	return inOff, inEdg, inWgt
}
