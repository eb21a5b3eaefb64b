// Package ligra implements the Ligra programming model that Julienne
// extends (§2.1 of the paper): vertexSubsets and the edgeMap/vertexMap
// family of traversal primitives, including the direction-optimized
// (sparse push / dense pull) edge map and the additional primitives the
// paper adds — tagged subsets (vertexSubset_T), edgeMapSum and
// edgeMapFilter with optional packing.
package ligra

import (
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
	return parallel.Sum(len(ids), 0, func(i int) int64 {
		return int64(g.OutDegree(ids[i]))
	})
}

// Tagged is a vertexSubset with an associated value per member — the
// vertexSubset_T of §2.1. It is always sparse: the paper only produces
// tagged subsets as outputs of edgeMapReduce-style primitives, which are
// sparse by construction.
type Tagged[T any] struct {
	n    int
	IDs  []graph.Vertex
	Vals []T
}

// NewTagged wraps parallel id/value slices as a tagged subset.
func NewTagged[T any](n int, ids []graph.Vertex, vals []T) Tagged[T] {
	if len(ids) != len(vals) {
		panic("ligra: tagged subset length mismatch")
	}
	return Tagged[T]{n: n, IDs: ids, Vals: vals}
}

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

// TagMap builds a new tagged subset by applying f to each member of a
// plain subset, keeping only members for which f reports ok. It is the
// vertexMap of §2.1 generalized to produce values (used e.g. by
// ∆-stepping's Reset step).
func TagMap[T any](s VertexSubset, f func(v graph.Vertex) (T, bool)) Tagged[T] {
	ids := s.Sparse()
	type pair struct {
		id  graph.Vertex
		val T
	}
	out := parallel.MapFilter(len(ids), func(i int) (pair, bool) {
		v, ok := f(ids[i])
		return pair{ids[i], v}, ok
	})
	outIDs := make([]graph.Vertex, len(out))
	outVals := make([]T, len(out))
	parallel.For(len(out), parallel.DefaultGrain, func(i int) {
		outIDs[i] = out[i].id
		outVals[i] = out[i].val
	})
	return NewTagged(s.n, outIDs, outVals)
}

// TagMapTagged is TagMap over a tagged input: f sees each member and its
// value and may emit a new value. Used to chain tagged traversals
// (e.g. ∆-stepping: edgeMap output -> Reset -> updateBuckets input).
func TagMapTagged[T, U any](t Tagged[T], f func(v graph.Vertex, val T) (U, bool)) Tagged[U] {
	type pair struct {
		id  graph.Vertex
		val U
	}
	out := parallel.MapFilter(len(t.IDs), func(i int) (pair, bool) {
		v, ok := f(t.IDs[i], t.Vals[i])
		return pair{t.IDs[i], v}, ok
	})
	outIDs := make([]graph.Vertex, len(out))
	outVals := make([]U, len(out))
	parallel.For(len(out), parallel.DefaultGrain, func(i int) {
		outIDs[i] = out[i].id
		outVals[i] = out[i].val
	})
	return NewTagged(t.n, outIDs, outVals)
}
