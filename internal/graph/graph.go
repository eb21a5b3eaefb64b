// Package graph provides the in-memory graph representation used by every
// algorithm in this repository: a compressed sparse row (CSR) structure
// with optional integral edge weights and, for directed graphs, the
// transposed adjacency needed by Ligra's pull-based (dense) edge map.
//
// Algorithms are written against the Graph interface, reading adjacency
// through its one slice accessor pair (OutAdj/InAdj), so they run
// unchanged over the plain CSR here and the byte-compressed
// representation in internal/compress, mirroring how Julienne inherits Ligra+'s compression
// (§1 of the paper: the 225B-edge Hyperlink graph only fits compressed).
package graph

// Vertex identifiers are dense integers in [0, NumVertices), as in
// Ligra/Julienne (§2: "vertices are assumed to be indexed from 0 to n-1").
type Vertex = uint32

// NilVertex is a sentinel meaning "no vertex".
const NilVertex Vertex = ^Vertex(0)

// Weight is a non-negative integral edge weight. wBFS and ∆-stepping
// assume non-negative integer weights (§4.2); 32 bits covers the paper's
// [1, 10^5) range with room to spare.
type Weight = int32

// Graph is the read contract algorithms are written against.
//
// Adjacency has one form: OutAdj/InAdj return v's neighbors as slices,
// so every reader — hot traversal or cold oracle — makes one interface
// call per vertex and then runs a plain loop, with no per-neighbor
// callback to box. For symmetric graphs InAdj and OutAdj coincide.
type Graph interface {
	// NumVertices returns n.
	NumVertices() int
	// NumEdges returns m, the number of directed edges stored
	// (a symmetric graph stores each undirected edge twice).
	NumEdges() int64
	// Symmetric reports whether the graph is undirected.
	Symmetric() bool
	// Weighted reports whether edges carry weights.
	Weighted() bool
	// OutDegree returns the live out-degree of v.
	OutDegree(v Vertex) int
	// InDegree returns the live in-degree of v.
	InDegree(v Vertex) int
	// OutAdj returns the out-neighbors of v and the parallel edge
	// weights (nil when the graph is unweighted), in an unspecified but
	// deterministic order; under Packer.PackOut, the live ones only.
	// The slices are read-only. They may alias the graph's own storage
	// (CSR: zero copy, buf ignored) or buf (compressed: decoded into it),
	// and stay valid until the next OutAdj/InAdj call that passes the
	// same buf or the next PackOut of v. A nil buf is allowed and costs
	// a decoding representation an allocation; give each worker of a
	// hot loop its own.
	OutAdj(v Vertex, buf *AdjBuf) ([]Vertex, []Weight)
	// InAdj is OutAdj over the in-neighbors of v.
	InAdj(v Vertex, buf *AdjBuf) ([]Vertex, []Weight)
}

// AdjBuf is the caller-owned decode buffer OutAdj and InAdj take: a
// representation that cannot hand out views of its own arrays decodes
// into it, growing it as needed, so a buffer reused across vertices
// (one per worker) makes the traversal allocation-free once it has
// seen the largest degree. The zero value is ready to use. Only Graph
// implementations touch the fields.
type AdjBuf struct {
	Nbrs []Vertex
	Wgts []Weight
}

// Packer is implemented by mutable graph representations that support
// removing out-edges in place, the Pack option of edgeMapFilter (§2.1)
// that approximate set cover uses to drop edges to covered elements.
type Packer interface {
	Graph
	// PackOut keeps only the out-neighbors of v satisfying keep and
	// returns the new out-degree. Only v's own out-list is packed: on a
	// directed graph the in-adjacency can no longer be built, and on a
	// symmetric one the reverse edges stay in their owners' lists (set
	// cover only traverses out-edges). PackOut may run concurrently
	// with PackOut and OutAdj of other vertices, never of v itself.
	PackOut(v Vertex, keep func(u Vertex) bool) int
}
