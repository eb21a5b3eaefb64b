// Package oracle holds small, obviously-correct sequential reference
// implementations of every algorithm family in this repository. They
// are the ground truth the differential property tests in
// internal/proptest compare the parallel, work-efficient
// implementations against, following the methodology of GBBS
// ("Theoretically Efficient Parallel Graph Algorithms Can Be Fast and
// Scalable", SPAA'18): each parallel benchmark is validated against a
// simple serial baseline whose correctness is evident by inspection.
//
// The implementations here deliberately trade efficiency for
// simplicity — linear scans instead of heaps, repeated passes instead
// of bucket queues — so that they share no code, no data-structure
// tricks, and no failure modes with the implementations under test
// (the sequential baselines in internal/algo, such as CorenessBZ and
// DijkstraHeap, are optimized enough to harbor the same class of bug
// they would be checking for). Costs are O(n^2 + m)-ish, which is fine
// for the property tests' graph sizes.
//
// Everything operates through the graph.Graph read interface, so the
// oracles run unchanged over plain CSR and compressed graphs.
package oracle

import "fmt"

// Diff compares two per-vertex results (coreness, distances, BFS
// levels, component labels) and reports the first mismatching vertex,
// for small, readable failure messages.
func Diff[T comparable](name string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", name, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("%s: vertex %d: got %v, want %v", name, v, got[v], want[v])
		}
	}
	return nil
}
