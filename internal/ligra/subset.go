// Package ligra implements the Ligra programming model that Julienne
// extends (§2.1 of the paper): vertexSubsets and the edgeMap/vertexMap
// family of traversal primitives, including the direction-optimized
// (sparse push / dense pull) edge map and the additional primitives the
// paper adds — tagged subsets (vertexSubset_T), edgeMapSum and
// edgeMapFilter with optional packing.
package ligra

import (
	"slices"

	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// VertexSubset is a subset of [0, n). It is stored either sparsely (a
// list of vertex ids) or densely (a boolean per vertex); conversions
// happen lazily when a traversal needs the other form, exactly as in
// Ligra. A VertexSubset is immutable after creation.
type VertexSubset struct {
	n      int
	sparse []graph.Vertex // valid iff dense == nil
	dense  []bool
	size   int
	// outEdges caches OutDegreeSum for subsets built by Frontier.
	outEdges    int64
	hasOutEdges bool
}

// Empty returns the empty subset of a universe of size n.
func Empty(n int) VertexSubset {
	return VertexSubset{n: n, sparse: []graph.Vertex{}}
}

// Single returns the subset {v} of a universe of size n.
func Single(n int, v graph.Vertex) VertexSubset {
	return VertexSubset{n: n, sparse: []graph.Vertex{v}, size: 1}
}

// FromSparse wraps a list of distinct vertex ids as a subset. The slice
// is adopted, not copied.
func FromSparse(n int, ids []graph.Vertex) VertexSubset {
	debugCheckSparse(n, ids)
	return VertexSubset{n: n, sparse: ids, size: len(ids)}
}

// Frontier is FromSparse for a subset about to be traversed on g: it
// sums the members' out-degrees, once, and the subset carries the sum.
// A round's edge count, the direction heuristic's threshold quantity
// and the work the fork cut-off is keyed on are that one number, so a
// kernel that builds its frontier here walks it once per round.
func Frontier(g graph.Graph, ids []graph.Vertex) VertexSubset {
	s := FromSparse(g.NumVertices(), ids)
	s.outEdges, s.hasOutEdges = s.OutDegreeSum(g), true
	return s
}

// FromDense wraps a dense membership array as a subset. The slice is
// adopted, not copied.
func FromDense(n int, member []bool) VertexSubset {
	size := parallel.Count(n, 0, func(i int) bool { return member[i] })
	return VertexSubset{n: n, dense: member, size: size}
}

// All returns the full universe [0, n).
func All(n int) VertexSubset {
	member := make([]bool, n)
	parallel.For(n, parallel.DefaultGrain, func(i int) { member[i] = true })
	return VertexSubset{n: n, dense: member, size: n}
}

// Universe returns n, the size of the underlying vertex universe.
func (s VertexSubset) Universe() int { return s.n }

// Size returns the number of vertices in the subset.
func (s VertexSubset) Size() int { return s.size }

// IsEmpty reports whether the subset is empty.
func (s VertexSubset) IsEmpty() bool { return s.size == 0 }

// IsDense reports which representation the subset currently holds.
func (s VertexSubset) IsDense() bool { return s.dense != nil }

// Sparse returns the subset as a list of vertex ids (converting from the
// dense form if needed; the result of a conversion is in increasing id
// order). Callers must not modify the returned slice.
func (s VertexSubset) Sparse() []graph.Vertex {
	if s.dense == nil {
		return s.sparse
	}
	return parallel.PackIndices(s.n, func(i int) bool { return s.dense[i] })
}

// Dense returns the subset as a membership array (converting from the
// sparse form if needed). Callers must not modify the returned slice.
func (s VertexSubset) Dense() []bool {
	if s.dense != nil {
		return s.dense
	}
	member := make([]bool, s.n)
	parallel.For(len(s.sparse), parallel.DefaultGrain, func(i int) {
		member[s.sparse[i]] = true
	})
	return member
}

// ForEach calls f on every member in parallel.
func (s VertexSubset) ForEach(f func(v graph.Vertex)) {
	if s.dense != nil {
		parallel.For(s.n, parallel.DefaultGrain, func(i int) {
			if s.dense[i] {
				f(graph.Vertex(i))
			}
		})
		return
	}
	parallel.For(len(s.sparse), parallel.DefaultGrain, func(i int) {
		f(s.sparse[i])
	})
}

// Contains reports membership. On a sparse subset this is O(|s|); it is
// meant for tests and assertions, not inner loops.
func (s VertexSubset) Contains(v graph.Vertex) bool {
	if s.dense != nil {
		return s.dense[v]
	}
	for _, u := range s.sparse {
		if u == v {
			return true
		}
	}
	return false
}

// OutDegreeSum returns the sum of live out-degrees in g over the
// subset: the quantity Ligra's direction optimization thresholds on
// and the exact work of a sparse traversal. A subset built by Frontier
// (on the same g) answers from its cache; any other walks its members.
func (s VertexSubset) OutDegreeSum(g graph.Graph) int64 {
	if s.hasOutEdges {
		return s.outEdges
	}
	if s.dense != nil {
		return parallel.Sum(s.n, 0, func(i int) int64 {
			if s.dense[i] {
				return int64(g.OutDegree(graph.Vertex(i)))
			}
			return 0
		})
	}
	ids := s.sparse // the closure escapes: capture the slice, not the subset
	if parallel.WorkersFor(int64(len(ids))) == 1 {
		// A frontier too small to fork for is summed in place: Sum's
		// closure would cost every round of a long-diameter run two
		// allocations to add up a few dozen degrees.
		var sum int64
		for _, v := range ids {
			sum += int64(g.OutDegree(v))
		}
		return sum
	}
	return parallel.Sum(len(ids), 0, func(i int) int64 {
		return int64(g.OutDegree(ids[i]))
	})
}

// Tagged is a vertexSubset with an associated value per member — the
// vertexSubset_T of §2.1. It is always sparse: the paper only produces
// tagged subsets as outputs of edgeMapReduce-style primitives, which are
// sparse by construction.
//
// A Tagged is also the destination those primitives write into. Each
// takes a trailing dst *Tagged[T]: it reuses the capacity of dst's two
// arrays (growing them when a round outgrows them), leaves the result
// in *dst and returns it. The arrays belong to dst — a primitive copies
// into them, it never makes them alias its input — so the result is
// valid until the next call with the same dst, and a kernel that feeds a
// result back as its next input alternates two. A kernel loop declares
// its destinations once, before the loop, and its rounds allocate
// nothing once each has seen its largest output. A nil dst allocates a
// fresh result. The julienne_debug build ends the lifetime for real:
// the next call overwrites the previous result's IDs with ^0 and gives
// dst new arrays, so a Tagged kept too long indexes out of range.
type Tagged[T any] struct {
	n    int
	IDs  []graph.Vertex
	Vals []T
	// counts is EdgeMapSum's counter per vertex of the universe, zero
	// between calls. Only a destination EdgeMapSum has written has it.
	counts []uint32
}

// NewTagged wraps parallel id/value slices as a tagged subset.
func NewTagged[T any](n int, ids []graph.Vertex, vals []T) Tagged[T] {
	if len(ids) != len(vals) {
		panic("ligra: tagged subset length mismatch")
	}
	return Tagged[T]{n: n, IDs: ids, Vals: vals}
}

// take starts a call that writes into dst: the previous result's
// lifetime ends and its two arrays come back empty, capacity kept.
func (dst *Tagged[T]) take() ([]graph.Vertex, []T) {
	if dst == nil {
		return nil, nil
	}
	debugPoison(dst)
	return dst.IDs[:0], dst.Vals[:0]
}

// put ends the call take started: the filled arrays are the result, and
// dst's storage for the next call.
func (dst *Tagged[T]) put(n int, ids []graph.Vertex, vals []T) Tagged[T] {
	if dst != nil {
		dst.n, dst.IDs, dst.Vals = n, ids, vals
	}
	return NewTagged(n, ids, vals)
}

// push is append that doubles a full slice. The runtime's own growth
// factor falls to 1.25 for large slices, so a destination that grows
// with a run's frontiers would allocate five times its final size on
// the way there; doubling allocates twice. The full case is one call
// out of line: with slices.Grow inlined beside append's own capacity
// check, the per-edge loops around push ran 6 % slower (EXPERIMENTS.md
// "Round allocations").
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = doubled(s)
	}
	s = s[:len(s)+1]
	s[len(s)-1] = v
	return s
}

//go:noinline
func doubled[T any](s []T) []T { return slices.Grow(s, max(len(s), 16)) }

// Universe returns the size of the underlying vertex universe.
func (t Tagged[T]) Universe() int { return t.n }

// Size returns the number of members.
func (t Tagged[T]) Size() int { return len(t.IDs) }

// IsEmpty reports whether the subset is empty.
func (t Tagged[T]) IsEmpty() bool { return len(t.IDs) == 0 }

// At returns the i'th (vertex, value) pair — the paper's "function call
// operator" on vertexSubsets.
func (t Tagged[T]) At(i int) (graph.Vertex, T) { return t.IDs[i], t.Vals[i] }

// Untagged drops the values, yielding a plain VertexSubset that shares
// the id slice.
func (t Tagged[T]) Untagged() VertexSubset { return FromSparse(t.n, t.IDs) }

// part is one worker's share of a tagged output while a forked
// primitive builds it, next to the worker's decode buffer. Parts come
// from the scratch pool and keep their capacity across calls; the
// survivors are copied into the destination before they go back.
type part[T any] struct {
	buf  graph.AdjBuf
	ids  []graph.Vertex
	vals []T
}

// withParts runs f on p parts borrowed from the scratch pool, each
// emptied with its capacity kept.
func withParts[T any](p int, f func(parts []part[T])) {
	parallel.WithScratch(p, func(parts []part[T]) {
		for i := range parts {
			parts[i].ids, parts[i].vals = parts[i].ids[:0], parts[i].vals[:0]
		}
		f(parts)
	})
}

// collect appends every part's pairs to ids and vals.
func collect[T any](parts []part[T], ids []graph.Vertex, vals []T) ([]graph.Vertex, []T) {
	total := 0
	for i := range parts {
		total += len(parts[i].ids)
	}
	ids, vals = slices.Grow(ids, total), slices.Grow(vals, total)
	for i := range parts {
		ids = append(ids, parts[i].ids...)
		vals = append(vals, parts[i].vals...)
	}
	return ids, vals
}

// TagMap builds a tagged subset by applying f, once, to each member of
// a plain subset, keeping only members for which f reports ok. It is
// the vertexMap of §2.1 generalized to produce values (set cover's
// rebucketing step). The output goes to dst (see Tagged); in s's order
// when the call runs inline, in no particular order when it forks.
func TagMap[T any](s VertexSubset, f func(v graph.Vertex) (T, bool), dst *Tagged[T]) Tagged[T] {
	ids := s.Sparse()
	outIDs, outVals := dst.take()
	p := parallel.WorkersFor(int64(len(ids)))
	if p == 1 {
		outIDs, outVals = tagInto(ids, f, outIDs, outVals)
		return dst.put(s.n, outIDs, outVals)
	}
	withParts(p, func(parts []part[T]) {
		parallel.Workers(len(ids), p, func(worker, lo, hi int) {
			w := &parts[worker]
			w.ids, w.vals = tagInto(ids[lo:hi], f, w.ids, w.vals)
		})
		outIDs, outVals = collect(parts, outIDs, outVals)
	})
	return dst.put(s.n, outIDs, outVals)
}

// tagInto is TagMap over one block: the pairs f keeps are appended to
// outIDs and outVals.
func tagInto[T any](ids []graph.Vertex, f func(graph.Vertex) (T, bool),
	outIDs []graph.Vertex, outVals []T) ([]graph.Vertex, []T) {

	for _, v := range ids {
		if val, ok := f(v); ok {
			outIDs = push(outIDs, v)
			outVals = push(outVals, val)
		}
	}
	return outIDs, outVals
}

// TagMapTagged is TagMap over a tagged input: f sees each member and its
// value and may emit a new value. Used to chain tagged traversals
// (∆-stepping: edgeMap output -> Reset -> updateBuckets input). dst must
// not be the destination t was written into.
func TagMapTagged[T, U any](t Tagged[T], f func(v graph.Vertex, val T) (U, bool), dst *Tagged[U]) Tagged[U] {
	outIDs, outVals := dst.take()
	p := parallel.WorkersFor(int64(len(t.IDs)))
	if p == 1 {
		outIDs, outVals = retagInto(t.IDs, t.Vals, f, outIDs, outVals)
		return dst.put(t.n, outIDs, outVals)
	}
	withParts(p, func(parts []part[U]) {
		parallel.Workers(len(t.IDs), p, func(worker, lo, hi int) {
			w := &parts[worker]
			w.ids, w.vals = retagInto(t.IDs[lo:hi], t.Vals[lo:hi], f, w.ids, w.vals)
		})
		outIDs, outVals = collect(parts, outIDs, outVals)
	})
	return dst.put(t.n, outIDs, outVals)
}

// retagInto is TagMapTagged over one block.
func retagInto[T, U any](ids []graph.Vertex, vals []T, f func(graph.Vertex, T) (U, bool),
	outIDs []graph.Vertex, outVals []U) ([]graph.Vertex, []U) {

	for i, v := range ids {
		if val, ok := f(v, vals[i]); ok {
			outIDs = push(outIDs, v)
			outVals = push(outVals, val)
		}
	}
	return outIDs, outVals
}
