package proptest

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
	"julienne/internal/rng"
)

// TestEdgeMapWriteMinMatchesOracle holds ligra.EdgeMapWriteMin —
// Algorithm 2's relaxation under its round flag — against a sequential
// per-edge write-min in the order its contract states (relaxOrder:
// identifier order once |U| + Σ outdeg(U) passes m/20, U's order
// below), on every family (weighted from [0, 8)), both representations
// and P ∈ {1, 2, 4}. Each P runs three rounds into one destination:
//
//   - the sources start at 0, so no write lowers one and the outcome
//     does not depend on the order the edges are relaxed in: the final
//     distances must be the oracle's at every P;
//   - every distance is random, so a source lowered earlier in the
//     round relaxes from its new distance: the final distances must be
//     the oracle's when the call ran inline, and when it forked lie
//     between the bounds every relaxation order meets;
//   - the same with U listed in a random order, which the call keeps
//     below m/20 and replaces by identifier order past it.
//
// In every round each lowered vertex is output once, carrying its
// pre-round distance, it and nothing else carries the round flag, a
// call that ran inline (every call at P=1) counts exactly the oracle's
// lowering writes, and a forked one at least one per lowered vertex.
//
// A call that runs inline writes with plain stores and a forked one
// through its compare-and-swap. At the default sizes no family case has the
// work to fork, so one more input at P=2 drives both arms over one distance array, as
// ∆-stepping's rounds do: a forked call, then an inline one relaxing
// from the distances it left, with parallel.ForkStats showing which arm
// each call took.
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
			for round, closed := range []bool{true, false, false} {
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
				if round == 2 {
					slices.SortFunc(ids, func(a, b graph.Vertex) int {
						return cmp.Compare(c.Rand(2<<40|uint64(a), 1<<62), c.Rand(2<<40|uint64(b), 1<<62))
					})
				}
				if _, err := checkWriteMin(g, csr, ids, start, closed, &dst); err != nil {
					return fmt.Errorf("P=%d round %d (|U|=%d): %w", p, round, len(ids), err)
				}
			}
		}
		return nil
	})

	t.Run("both arms on one array", func(t *testing.T) {
		defer parallel.SetProcs(parallel.SetProcs(2))
		csr := gen.UniformWeights(gen.RMAT(1<<12, 1<<15, false, 5), 0, 8, 5)
		n := csr.NumVertices()
		dist := make([]int64, n)
		var wide []graph.Vertex
		for v := range dist {
			if dist[v] = int64(rng.UintNAt(5, uint64(v), 64)); dist[v] >= 48 {
				dist[v] = 1 << 40
			}
			if v%3 == 0 {
				wide = append(wide, graph.Vertex(v))
			}
		}
		var dst ligra.Tagged[uint64]
		if inline, err := checkWriteMin(csr, csr, wide, dist, false, &dst); err != nil || inline {
			t.Fatalf("|U|=%d: inline=%t, want a forked call: %v", len(wide), inline, err)
		}
		// The inline call's source is one whose relaxation lowers a
		// target from the distances the forked call left, which depend
		// on the order its workers ran in.
		src := lowersFrom(csr, dist)
		if inline, err := checkWriteMin(csr, csr, []graph.Vertex{src}, dist, false, &dst); err != nil || !inline {
			t.Fatalf("U={%d}: inline=%t, want an inline call: %v", src, inline, err)
		}
	})

	// A scrambled frontier past m/20 at every P: relaxed in identifier
	// order when inline, within every order's bounds when forked.
	t.Run("scrambled past m/20", func(t *testing.T) {
		defer parallel.SetProcs(parallel.Procs())
		csr := gen.UniformWeights(gen.RMAT(1<<12, 1<<15, false, 6), 0, 8, 6)
		n := csr.NumVertices()
		var ids []graph.Vertex
		start := make([]int64, n)
		for v := range start {
			if start[v] = int64(rng.UintNAt(6, uint64(v), 64)); start[v] >= 48 {
				start[v] = 1 << 40
			}
			if v%4 != 0 {
				ids = append(ids, graph.Vertex(v))
			}
		}
		slices.SortFunc(ids, func(a, b graph.Vertex) int {
			return cmp.Compare(rng.UintNAt(7, uint64(a), 1<<62), rng.UintNAt(7, uint64(b), 1<<62))
		})
		for _, p := range []int{1, 2, 4} {
			parallel.SetProcs(p)
			var dst ligra.Tagged[uint64]
			if inline, err := checkWriteMin(csr, csr, ids, slices.Clone(start), false, &dst); err != nil || inline != (p == 1) {
				t.Errorf("P=%d, |U|=%d: inline=%t: %v", p, len(ids), inline, err)
			}
		}
	})
}

// relaxOrder returns the order EdgeMapWriteMin relaxes U = ids in on
// csr when it runs inline: identifier order, each id once, once
// |U| + Σ outdeg(U) passes m/20 (the number ligra's EdgeMap goes dense
// on), U's own order below it.
func relaxOrder(csr *graph.CSR, ids []graph.Vertex) []graph.Vertex {
	work := int64(len(ids))
	for _, s := range ids {
		work += int64(csr.OutDegree(s))
	}
	if work <= csr.NumEdges()/20 {
		return ids
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	return slices.Compact(sorted)
}

// checkWriteMin runs EdgeMapWriteMin over U = ids on g (whose CSR form
// is csr) from the distances in start, and checks it against the
// oracle in relaxOrder: each lowered vertex output once with its
// pre-round distance and flagged, the final distances the oracle's
// when the call ran inline or the round was closed (no source lowered)
// and within every relaxation order's bounds otherwise, and the
// lowering writes exactly the oracle's when inline and at least one
// per lowered vertex always.
// It leaves the call's distances in start with the round flag cleared,
// as ∆-stepping clears it, and reports whether the call ran inline.
func checkWriteMin(g graph.Graph, csr *graph.CSR, ids []graph.Vertex, start []int64, closed bool,
	dst *ligra.Tagged[uint64]) (inline bool, err error) {

	n := g.NumVertices()
	want, wantRelaxed := writeMinOracle(csr, relaxOrder(csr, ids), start)
	dist := slices.Clone(start)
	before := parallel.ForkStats()
	got, relaxed := ligra.EdgeMapWriteMin(g, ligra.FromSparse(n, ids), dist, dst)
	inline = parallel.ForkStats().Sub(before).Forked == 0
	if err := sameLowered(got, start, dist); err != nil {
		return inline, err
	}
	for v := range dist {
		dist[v] = int64(uint64(dist[v]) &^ ligra.RoundFlag)
	}
	if closed || inline {
		if !slices.Equal(dist, want) {
			return inline, fmt.Errorf("inline=%t: distances %v, want %v", inline, dist, want)
		}
	} else if err := withinOrderBounds(csr, ids, start, dist); err != nil {
		return inline, fmt.Errorf("forked: %w", err)
	}
	if inline && relaxed != wantRelaxed {
		return inline, fmt.Errorf("%d lowering writes, want %d", relaxed, wantRelaxed)
	}
	if relaxed < int64(got.Size()) {
		return inline, fmt.Errorf("%d lowering writes for %d lowered vertices", relaxed, got.Size())
	}
	copy(start, dist)
	return inline, nil
}

// lowersFrom returns the first vertex with an out-edge whose relaxation
// would lower its target's distance.
func lowersFrom(csr *graph.CSR, dist []int64) graph.Vertex {
	for u := range dist {
		nbrs, ws := csr.OutAdj(graph.Vertex(u), nil)
		for j, v := range nbrs {
			if dist[u]+int64(ws[j]) < dist[v] {
				return graph.Vertex(u)
			}
		}
	}
	panic("no relaxation lowers a distance")
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
