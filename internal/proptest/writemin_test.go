package proptest

import (
	"fmt"
	"slices"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
)

// TestEdgeMapWriteMinMatchesOracle holds ligra.EdgeMapWriteMin —
// Algorithm 2's relaxation under its round flag — against a sequential
// per-edge write-min in U's order, on every family (weighted from
// [0, 8)), both representations and P ∈ {1, 2, 4}. Each P runs two
// rounds into one destination:
//
//   - the sources start at 0, so no write lowers one and the outcome
//     does not depend on the order the edges are relaxed in: the final
//     distances must be the oracle's at every P;
//   - every distance is random, so a source lowered earlier in the
//     round relaxes from its new distance: the final distances must be
//     the oracle's when the call ran inline, and when it forked lie
//     between the bounds every relaxation order meets.
//
// In both rounds each lowered vertex is output once, carrying its
// pre-round distance, it and nothing else carries the round flag, a
// call that ran inline (every call at P=1) counts exactly the oracle's
// lowering writes, and a forked one at least one per lowered vertex.
func TestEdgeMapWriteMinMatchesOracle(t *testing.T) {
	Check(t, gen.Families(), func(c Case, csr *graph.CSR) error {
		csr = gen.UniformWeights(csr, 0, 8, c.Seed)
		g := c.Wrap(csr)
		n := g.NumVertices()
		procs := []int{c.Procs}
		if c.Procs > 1 {
			procs = append(procs, 4)
		}
		defer parallel.SetProcs(parallel.Procs())
		for _, p := range procs {
			parallel.SetProcs(p)
			var dst ligra.Tagged[uint64]
			for round, closed := range []bool{true, false} {
				var ids []graph.Vertex
				start := make([]int64, n)
				for v := range start {
					key := uint64(round)<<20 | uint64(v)
					if c.Rand(key, 3) == 0 {
						ids = append(ids, graph.Vertex(v))
					}
					if start[v] = int64(c.Rand(1<<40|key, 64)); start[v] >= 48 {
						start[v] = 1 << 40 // not reached yet
					}
				}
				if closed {
					for _, s := range ids {
						start[s] = 0
					}
				}
				want, wantRelaxed := writeMinOracle(csr, ids, start)
				dist := slices.Clone(start)
				before := parallel.ForkStats()
				got, relaxed := ligra.EdgeMapWriteMin(g, ligra.FromSparse(n, ids), dist, &dst)
				inline := parallel.ForkStats().Sub(before).Forked == 0
				if err := sameLowered(got, start, dist); err != nil {
					return fmt.Errorf("P=%d round %d (|U|=%d): %w", p, round, len(ids), err)
				}
				for v := range dist {
					dist[v] = int64(uint64(dist[v]) &^ ligra.RoundFlag)
				}
				if closed || inline {
					if !slices.Equal(dist, want) {
						return fmt.Errorf("P=%d round %d (|U|=%d, inline=%t): distances %v, want %v", p, round, len(ids), inline, dist, want)
					}
				} else if err := withinOrderBounds(csr, ids, start, dist); err != nil {
					return fmt.Errorf("P=%d round %d (|U|=%d, forked): %w", p, round, len(ids), err)
				}
				if inline && relaxed != wantRelaxed {
					return fmt.Errorf("P=%d round %d (|U|=%d): %d lowering writes, want %d", p, round, len(ids), relaxed, wantRelaxed)
				}
				if relaxed < int64(got.Size()) {
					return fmt.Errorf("P=%d round %d (|U|=%d): %d lowering writes for %d lowered vertices", p, round, len(ids), relaxed, got.Size())
				}
			}
		}
		return nil
	})
}

// writeMinOracle relaxes every out-edge of ids in order, each from its
// source's current distance, and returns the final distances and the
// number of writes that lowered one.
func writeMinOracle(csr *graph.CSR, ids []graph.Vertex, start []int64) ([]int64, int64) {
	dist := slices.Clone(start)
	var relaxed int64
	for _, s := range ids {
		nbrs, ws := csr.OutAdj(s, nil)
		for j, v := range nbrs {
			if nd := dist[s] + int64(ws[j]); nd < dist[v] {
				dist[v] = nd
				relaxed++
			}
		}
	}
	return dist, relaxed
}

// sameLowered checks the output against the distances the call left:
// exactly the vertices whose distance fell are output, once each, with
// their distance from start, and exactly they carry the round flag.
func sameLowered(got ligra.Tagged[uint64], start, dist []int64) error {
	if len(got.Vals) != len(got.IDs) {
		return fmt.Errorf("%d ids and %d values", len(got.IDs), len(got.Vals))
	}
	out := map[graph.Vertex]bool{}
	for i := 0; i < got.Size(); i++ {
		v, pre := got.At(i)
		if out[v] || pre != uint64(start[v]) {
			return fmt.Errorf("pair (%d, %d): want one pair with pre-round distance %d (duplicate=%t)", v, pre, start[v], out[v])
		}
		out[v] = true
	}
	for v, sd := range dist {
		d := uint64(sd)
		lowered := d&^ligra.RoundFlag < uint64(start[v])
		flagged := d&ligra.RoundFlag != 0
		if lowered != out[graph.Vertex(v)] || lowered != flagged {
			return fmt.Errorf("vertex %d: distance %d from %d, output=%t, flagged=%t", v, d&^ligra.RoundFlag, start[v], out[graph.Vertex(v)], flagged)
		}
	}
	return nil
}

// withinOrderBounds checks final distances a forked round left: a
// source's distance is read somewhere between its start and its end, so
// every target ends at most its best relaxation from the sources'
// starts and at least its best from their ends.
func withinOrderBounds(csr *graph.CSR, ids []graph.Vertex, start, dist []int64) error {
	hi, lo := slices.Clone(start), slices.Clone(start)
	for _, s := range ids {
		nbrs, ws := csr.OutAdj(s, nil)
		for j, v := range nbrs {
			hi[v] = min(hi[v], start[s]+int64(ws[j]))
			lo[v] = min(lo[v], dist[s]+int64(ws[j]))
		}
	}
	for v := range dist {
		if dist[v] < lo[v] || dist[v] > hi[v] {
			return fmt.Errorf("vertex %d ends at %d, outside [%d, %d]", v, dist[v], lo[v], hi[v])
		}
	}
	return nil
}
