//go:build julienne_debug

package ligra

import (
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
)

// TestStaleDestinationPoisoned proves the destination lifetime rule of
// debug_on.go is load-bearing: a caller keeps the Tagged a primitive
// returned past the next call with the same destination, for every
// primitive that takes one, and must find its ids poisoned — never the
// new call's pairs — while the new result is intact.
func TestStaleDestinationPoisoned(t *testing.T) {
	g := gen.Star(9) // hub 0, leaves 1..8
	hub, leaves := Single(9, 0), FromSparse(9, []graph.Vertex{1, 2, 3, 4})
	input := NewTagged(9, []graph.Vertex{5, 6, 7}, []uint32{50, 60, 70})
	all := admitAll(9)
	primitives := map[string]func(u VertexSubset, dst *Tagged[uint32]) Tagged[uint32]{
		"EdgeMapSum": func(u VertexSubset, dst *Tagged[uint32]) Tagged[uint32] {
			return EdgeMapSum(g, u, all, keepCount, dst)
		},
		"TagMap": func(u VertexSubset, dst *Tagged[uint32]) Tagged[uint32] {
			return TagMap(u, func(v graph.Vertex) (uint32, bool) { return v, true }, dst)
		},
		"TagMapTagged": func(_ VertexSubset, dst *Tagged[uint32]) Tagged[uint32] {
			return TagMapTagged(input, func(_ graph.Vertex, val uint32) (uint32, bool) { return val, true }, dst)
		},
		"EdgeMapFilterCount": func(u VertexSubset, dst *Tagged[uint32]) Tagged[uint32] {
			return EdgeMapFilterCount(g, u, func(_, _ graph.Vertex) bool { return true }, dst)
		},
		"EdgeMapPack": func(u VertexSubset, dst *Tagged[uint32]) Tagged[uint32] {
			return EdgeMapPack(g.Clone(), u, func(_, _ graph.Vertex) bool { return true }, dst)
		},
	}
	for name, run := range primitives {
		stalePoisoned(t, name, hub, leaves, run)
	}
	// Each call relaxes from fresh distances: U at 0, the rest unreached.
	stalePoisoned(t, "EdgeMapWriteMin", hub, leaves, func(u VertexSubset, dst *Tagged[uint64]) Tagged[uint64] {
		dist := make([]int64, 9)
		for v := range dist {
			dist[v] = 1 << 40
		}
		u.ForEach(func(v graph.Vertex) { dist[v] = 0 })
		tg, _ := EdgeMapWriteMin(g, u, dist, dst)
		return tg
	})
}

// stalePoisoned runs one primitive from first, keeps the result, runs
// it from second into the same destination, and requires the kept ids
// poisoned and the new ones in range.
func stalePoisoned[T any](t *testing.T, name string, first, second VertexSubset,
	run func(u VertexSubset, dst *Tagged[T]) Tagged[T]) {

	t.Helper()
	var dst Tagged[T]
	stale := run(first, &dst)
	if stale.IsEmpty() {
		t.Fatalf("%s: the first call returned nothing to keep", name)
	}
	fresh := run(second, &dst)
	for i, v := range stale.IDs {
		if v != ^graph.Vertex(0) {
			t.Errorf("%s: stale id %d reads %d after the next call with its destination, want poison", name, i, v)
		}
	}
	for i, v := range fresh.IDs {
		if int(v) >= 9 {
			t.Errorf("%s: the new result's id %d is %d: the poison reached live storage", name, i, v)
		}
	}
}
