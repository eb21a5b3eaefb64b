// Package compress provides a byte-compressed graph representation in
// the style of Ligra+ [55], which Julienne inherits: adjacency lists
// are difference-encoded and packed with variable-length byte codes,
// and decoded on the fly during traversal. The paper's largest input
// (Hyperlink2012, 225B edges) only fits in memory compressed (§1);
// this package lets every algorithm in the repository run over
// compressed graphs through the same graph.Graph interface, and the
// ablation benchmark measures the traversal cost of decoding.
//
// Encoding: each vertex's sorted neighbor list is stored as a varint
// of (first neighbor XOR-folded signed delta from the vertex id)
// followed by varints of the strictly positive gaps between
// consecutive neighbors. Weighted graphs interleave a varint weight
// after each neighbor code. This is the byte variant of Ligra+ (their
// fastest decode).
package compress

import (
	"sync"
	"sync/atomic"

	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// Graph is a byte-compressed graph implementing graph.Graph and
// graph.Packer. PackOut re-encodes the filtered adjacency list in
// place; removing neighbors never grows the encoding (merging two gaps
// g1, g2 into g1+g2 costs at most max(len(g1), len(g2)) + 1 ≤
// len(g1)+len(g2) varint bytes, and the same bound holds for the
// signed first-neighbor code), and the decoder reads exactly `degree`
// entries so trailing stale bytes are unreachable.
type Graph struct {
	n         int
	m         atomic.Int64 // live edge count (PackOut decrements it concurrently)
	offs      []uint64     // byte offset of each vertex's encoded list
	data      []byte
	degs      []uint32 // live degree per vertex
	weighted  bool
	symmetric bool

	// in* hold the compressed transpose for directed graphs (aliases
	// the out-encoding when symmetric).
	inOffs []uint64
	inData []byte
	inDegs []uint32
	inOnce sync.Once

	packed atomic.Bool // set once PackOut has run (invalidates transpose)
}

var (
	_ graph.Graph  = (*Graph)(nil)
	_ graph.Packer = (*Graph)(nil)
)

// FromCSR compresses a CSR graph. The CSR's adjacency lists must be
// sorted (graph.FromEdges and every generator produce sorted lists).
func FromCSR(g *graph.CSR) *Graph {
	n := g.NumVertices()
	c := &Graph{
		n:         n,
		weighted:  g.Weighted(),
		symmetric: g.Symmetric(),
	}
	c.m.Store(g.NumEdges())
	c.offs, c.data, c.degs = encodeAdjacency(n, c.weighted,
		func(v graph.Vertex) ([]graph.Vertex, []graph.Weight) {
			return g.OutEdges(v), g.OutWeights(v)
		})
	if c.symmetric {
		c.inOffs, c.inData, c.inDegs = c.offs, c.data, c.degs
	}
	return c
}

// encodeAdjacency builds the offset/data arrays for one direction.
func encodeAdjacency(n int, weighted bool,
	lists func(v graph.Vertex) ([]graph.Vertex, []graph.Weight)) ([]uint64, []byte, []uint32) {

	// Two passes: size each vertex's encoding, scan for offsets, then
	// encode in parallel.
	sizes := make([]uint64, n+1)
	degs := make([]uint32, n)
	parallel.For(n, 64, func(vi int) {
		v := graph.Vertex(vi)
		nbrs, wgts := lists(v)
		degs[vi] = uint32(len(nbrs))
		var sz int
		prev := v
		for i, u := range nbrs {
			if i == 0 {
				sz += varintLen(zigzag(int64(u) - int64(v)))
			} else {
				sz += varintLen(uint64(u - prev))
			}
			prev = u
			if weighted {
				sz += varintLen(uint64(wgts[i]))
			}
		}
		sizes[vi] = uint64(sz)
	})
	offs := make([]uint64, n+1)
	total := parallel.Scan(offs, sizes)
	data := make([]byte, total)
	parallel.For(n, 64, func(vi int) {
		v := graph.Vertex(vi)
		nbrs, wgts := lists(v)
		pos := offs[vi]
		prev := v
		for i, u := range nbrs {
			if i == 0 {
				pos = putVarint(data, pos, zigzag(int64(u)-int64(v)))
			} else {
				pos = putVarint(data, pos, uint64(u-prev))
			}
			prev = u
			if weighted {
				pos = putVarint(data, pos, uint64(wgts[i]))
			}
		}
	})
	offs[n] = total
	return offs, data, degs
}

// NumVertices implements graph.Graph.
func (c *Graph) NumVertices() int { return c.n }

// NumEdges implements graph.Graph (live count under PackOut).
func (c *Graph) NumEdges() int64 { return c.m.Load() }

// Symmetric implements graph.Graph.
func (c *Graph) Symmetric() bool { return c.symmetric }

// Weighted implements graph.Graph.
func (c *Graph) Weighted() bool { return c.weighted }

// OutDegree implements graph.Graph.
func (c *Graph) OutDegree(v graph.Vertex) int { return int(c.degs[v]) }

// InDegree implements graph.Graph.
func (c *Graph) InDegree(v graph.Vertex) int {
	c.ensureIn()
	return int(c.inDegs[v])
}

// SizeBytes returns the compressed adjacency footprint, used by the
// compression-ratio experiment.
func (c *Graph) SizeBytes() int64 { return int64(len(c.data)) }

// OutAdj implements graph.Graph: v's live list decoded into buf.
func (c *Graph) OutAdj(v graph.Vertex, buf *graph.AdjBuf) ([]graph.Vertex, []graph.Weight) {
	return decodeList(c.data, c.offs[v], c.degs[v], v, c.weighted, buf)
}

// InAdj implements graph.Graph.
func (c *Graph) InAdj(v graph.Vertex, buf *graph.AdjBuf) ([]graph.Vertex, []graph.Weight) {
	c.ensureIn()
	return decodeList(c.inData, c.inOffs[v], c.inDegs[v], v, c.weighted, buf)
}

// OutNeighbors implements graph.Graph over a freshly decoded list.
func (c *Graph) OutNeighbors(v graph.Vertex, f func(u graph.Vertex, w graph.Weight) bool) {
	nbrs, wgts := c.OutAdj(v, nil)
	eachAdj(nbrs, wgts, f)
}

// InNeighbors implements graph.Graph.
func (c *Graph) InNeighbors(v graph.Vertex, f func(u graph.Vertex, w graph.Weight) bool) {
	nbrs, wgts := c.InAdj(v, nil)
	eachAdj(nbrs, wgts, f)
}

// eachAdj is the callback form over a decoded list.
func eachAdj(nbrs []graph.Vertex, wgts []graph.Weight, f func(u graph.Vertex, w graph.Weight) bool) {
	for i, u := range nbrs {
		var w graph.Weight
		if wgts != nil {
			w = wgts[i]
		}
		if !f(u, w) {
			return
		}
	}
}

// ensureIn materializes the compressed transpose for directed graphs.
// Safe under concurrent traversals (see graph.CSR.ensureIn).
func (c *Graph) ensureIn() {
	c.inOnce.Do(c.buildIn)
}

func (c *Graph) buildIn() {
	if c.inOffs != nil {
		return // symmetric: aliased at construction
	}
	if c.packed.Load() {
		panic("compress: InNeighbors after PackOut on a directed graph")
	}
	// Build the transposed lists (sorted by construction of the
	// counting pass) and encode them.
	type rec struct {
		nbrs []graph.Vertex
		wgts []graph.Weight
	}
	in := make([]rec, c.n)
	var buf graph.AdjBuf
	for vi := 0; vi < c.n; vi++ {
		v := graph.Vertex(vi)
		nbrs, wgts := c.OutAdj(v, &buf)
		for i, u := range nbrs {
			in[u].nbrs = append(in[u].nbrs, v)
			if c.weighted {
				in[u].wgts = append(in[u].wgts, wgts[i])
			}
		}
	}
	c.inOffs, c.inData, c.inDegs = encodeAdjacency(c.n, c.weighted,
		func(v graph.Vertex) ([]graph.Vertex, []graph.Weight) {
			return in[v].nbrs, in[v].wgts
		})
}

// decodeList is the one decoder: it decodes the deg entries of the list
// at data[pos:] into buf (a nil buf gets a fresh one) and returns the
// neighbor slice and, for weighted graphs, the parallel weight slice.
func decodeList(data []byte, pos uint64, deg uint32, v graph.Vertex,
	weighted bool, buf *graph.AdjBuf) ([]graph.Vertex, []graph.Weight) {

	if buf == nil {
		buf = new(graph.AdjBuf)
	}
	buf.Nbrs = grown(buf.Nbrs, int(deg))
	nbrs := buf.Nbrs
	var wgts []graph.Weight // stays nil on an unweighted graph
	if weighted {
		buf.Wgts = grown(buf.Wgts, int(deg))
		wgts = buf.Wgts
	}
	u := v
	for i := range nbrs {
		var raw uint64
		raw, pos = getVarint(data, pos)
		if i == 0 {
			u = graph.Vertex(int64(v) + unzigzag(raw))
		} else {
			u += graph.Vertex(raw)
		}
		nbrs[i] = u
		if weighted {
			raw, pos = getVarint(data, pos)
			wgts[i] = graph.Weight(raw)
		}
	}
	return nbrs, wgts
}

// grown returns s resliced to n entries (contents arbitrary), non-nil
// even for n = 0, reallocating geometrically so a buffer reused over
// vertices in any order reallocates O(log maxdeg) times.
func grown[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		s = make([]T, max(n, 2*cap(s)))
	}
	return s[:n]
}

// PackOut implements graph.Packer: it decodes v's live neighbors,
// keeps those satisfying keep, and re-encodes them in place at the
// start of v's byte region. The filtered encoding never exceeds the
// original (see the type comment), so the region always fits; the
// live degree shrinks and the decoder never reads the stale tail.
// PackOut for distinct vertices may run concurrently.
func (c *Graph) PackOut(v graph.Vertex, keep func(u graph.Vertex) bool) int {
	if !c.packed.Load() {
		c.packed.Store(true)
	}
	// Decode, then filter in place: the list is re-encoded immediately,
	// so the buffer is transient.
	all, allW := c.OutAdj(v, nil)
	nbrs, wgts := all[:0], allW[:0]
	for i, u := range all {
		if keep(u) {
			nbrs = append(nbrs, u)
			if c.weighted {
				wgts = append(wgts, allW[i])
			}
		}
	}
	removed := int(c.degs[v]) - len(nbrs)
	pos := c.offs[v]
	prev := v
	for i, u := range nbrs {
		if i == 0 {
			pos = putVarint(c.data, pos, zigzag(int64(u)-int64(v)))
		} else {
			pos = putVarint(c.data, pos, uint64(u-prev))
		}
		prev = u
		if c.weighted {
			pos = putVarint(c.data, pos, uint64(wgts[i]))
		}
	}
	if pos > c.offs[v+1] {
		panic("compress: packed encoding exceeded its region")
	}
	c.degs[v] = uint32(len(nbrs))
	if removed > 0 {
		c.m.Add(-int64(removed))
	}
	return len(nbrs)
}

// Clone returns a deep copy (used by algorithms that pack edges).
func (c *Graph) Clone() *Graph {
	n := &Graph{
		n:         c.n,
		offs:      c.offs, // offsets are immutable region bounds: shared
		data:      append([]byte(nil), c.data...),
		degs:      append([]uint32(nil), c.degs...),
		weighted:  c.weighted,
		symmetric: c.symmetric,
	}
	n.m.Store(c.NumEdges())
	n.packed.Store(c.packed.Load())
	if c.symmetric {
		n.inOffs, n.inData, n.inDegs = n.offs, n.data, n.degs
	}
	return n
}

// --- varint / zigzag primitives -------------------------------------------

// zigzag maps a signed delta to an unsigned code (LSB = sign).
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varintLen returns the encoded length of x in bytes.
func varintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// putVarint writes x at data[pos:] and returns the new position.
func putVarint(data []byte, pos, x uint64) uint64 {
	for x >= 0x80 {
		data[pos] = byte(x) | 0x80
		x >>= 7
		pos++
	}
	data[pos] = byte(x)
	return pos + 1
}

// getVarint reads a varint at data[pos:].
func getVarint(data []byte, pos uint64) (uint64, uint64) {
	var x uint64
	var shift uint
	for {
		b := data[pos]
		pos++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, pos
		}
		shift += 7
	}
}
