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
	primitives := map[string]func(u VertexSubset, dst *Tagged[uint32]) Tagged[uint32]{
		"EdgeMapSum": func(u VertexSubset, dst *Tagged[uint32]) Tagged[uint32] {
			return EdgeMapSum(g, u, nil, keepCount, dst)
		},
		"EdgeMapTagged": func(u VertexSubset, dst *Tagged[uint32]) Tagged[uint32] {
			return EdgeMapTagged(g, u, nil, func(_, d graph.Vertex, _ graph.Weight) (uint32, bool) { return d, true }, dst)
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
		var dst Tagged[uint32]
		stale := run(hub, &dst)
		if stale.IsEmpty() {
			t.Fatalf("%s: the first call returned nothing to keep", name)
		}
		fresh := run(leaves, &dst)
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
}
