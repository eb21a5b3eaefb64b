package proptest

import (
	"fmt"
	"sync/atomic"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
)

// TestEdgeMapSumMatchesOracle holds ligra.EdgeMapSum — Algorithm 1's
// edgeMapSum(G, ids, Update) — against a sequential edge count followed
// by Update, on every family, both representations and P ∈ {1, 2, 4}.
// The condition's D is a per-vertex state that update overwrites, so an
// update that ran before the counting had finished would change a
// count; its K alternates between 0 and 1. One
// destination serves three calls over a growing then shrinking
// frontier, and a last call over every vertex, whose counts are exact
// only if every counter was left at zero.
func TestEdgeMapSumMatchesOracle(t *testing.T) {
	Check(t, gen.Families(), func(c Case, csr *graph.CSR) error {
		g := c.Wrap(csr)
		n := g.NumVertices()
		procs := []int{c.Procs}
		if c.Procs > 1 {
			procs = append(procs, 4)
		}
		defer parallel.SetProcs(parallel.Procs())
		for _, p := range procs {
			parallel.SetProcs(p)
			var dst ligra.Tagged[uint32]
			state := make([]uint32, n)
			for v := range state {
				state[v] = uint32(c.Rand(1000+uint64(v), 4))
			}
			// A third, all, then a seventh of the vertices.
			for call, modulus := range []uint64{3, 1, 7} {
				var ids []graph.Vertex
				for v := 0; v < n; v++ {
					if c.Rand(uint64(call)<<20|uint64(v), modulus) == 0 {
						ids = append(ids, graph.Vertex(v))
					}
				}
				live := ligra.Above{D: state, K: uint32(call % 2)}
				want := map[graph.Vertex]uint32{}
				for _, src := range ids {
					for _, v := range csr.OutEdges(src) {
						if state[v] > live.K {
							want[v]++
						}
					}
				}
				touched := len(want)
				for v, count := range want {
					if (uint32(v)+count)%3 == 0 {
						delete(want, v) // update drops these
					} else {
						want[v] = count*8 + state[v]
					}
				}
				calls := make([]int32, n)
				got := ligra.EdgeMapSum(g, ligra.FromSparse(n, ids), live,
					func(v graph.Vertex, count uint32) (uint32, bool) {
						atomic.AddInt32(&calls[v], 1)
						val := count*8 + state[v]
						state[v] = 1 + (state[v]+count)%3 // what the next call's condition reads
						return val, (uint32(v)+count)%3 != 0
					}, &dst)
				if err := sameTagged(got, want); err != nil {
					return fmt.Errorf("P=%d call %d (|U|=%d): %w", p, call, len(ids), err)
				}
				ran := 0
				for v, k := range calls {
					if k > 1 {
						return fmt.Errorf("P=%d call %d: update ran %d times on vertex %d", p, call, k, v)
					}
					ran += int(k)
				}
				if ran != touched {
					return fmt.Errorf("P=%d call %d: update ran on %d vertices, %d were touched", p, call, ran, touched)
				}
			}
			all := make([]graph.Vertex, n)
			admitAll := ligra.Above{D: make([]uint32, n)}
			indeg := map[graph.Vertex]uint32{}
			for v := range all {
				all[v] = graph.Vertex(v)
				admitAll.D[v] = 1
				if d := csr.InDegree(graph.Vertex(v)); d > 0 {
					indeg[graph.Vertex(v)] = uint32(d)
				}
			}
			keep := func(_ graph.Vertex, count uint32) (uint32, bool) { return count, true }
			if err := sameTagged(ligra.EdgeMapSum(g, ligra.FromSparse(n, all), admitAll, keep, &dst), indeg); err != nil {
				return fmt.Errorf("P=%d: in-degrees through the used destination (a counter was left non-zero?): %w", p, err)
			}
		}
		return nil
	})
}

// sameTagged reports how got differs from want as a set of pairs; a
// stale tail shows as a size mismatch.
func sameTagged(got ligra.Tagged[uint32], want map[graph.Vertex]uint32) error {
	if got.Size() != len(want) || len(got.Vals) != len(got.IDs) {
		return fmt.Errorf("%d ids and %d values, want %d pairs", len(got.IDs), len(got.Vals), len(want))
	}
	seen := map[graph.Vertex]bool{}
	for i := 0; i < got.Size(); i++ {
		v, val := got.At(i)
		if w, ok := want[v]; !ok || w != val || seen[v] {
			return fmt.Errorf("pair (%d, %d): want value %d (present=%t, duplicate=%t)", v, val, w, ok, seen[v])
		}
		seen[v] = true
	}
	return nil
}
