package proptest

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/rng"
)

// TestAdjacencyFormsAgree pins the graph.Graph adjacency contract on
// both implementers: OutAdj/InAdj return as many neighbors as the live
// degree says, with nil weights exactly on unweighted graphs, fresh and
// after PackOut has shortened a seeded random half of the lists. Each
// list is also held against the source CSR's (filtered the same way), so
// the two representations cannot agree on a wrong answer.
func TestAdjacencyFormsAgree(t *testing.T) {
	Check(t, gen.Families(), func(c Case, g *graph.CSR) error {
		for _, weighted := range []bool{false, true} {
			base := g
			if weighted {
				base = reweight(c, g)
			}
			for _, packed := range []bool{false, true} {
				h := c.Wrap(base.Clone())
				keep := func(v, u graph.Vertex) bool { return true }
				if packed {
					// About half the vertices lose about half their
					// neighbors, both a pure function of the case.
					chosen := func(v graph.Vertex) bool { return c.Rand(100+uint64(v), 2) == 1 }
					keep = func(v, u graph.Vertex) bool {
						return !chosen(v) || rng.UintNAt(c.Seed, uint64(v)<<32|uint64(u), 2) == 0
					}
					for v := graph.Vertex(0); int(v) < h.NumVertices(); v++ {
						if chosen(v) {
							h.(graph.Packer).PackOut(v, func(u graph.Vertex) bool { return keep(v, u) })
						}
					}
				}
				// A directed graph has no coherent in-adjacency once
				// packed (both representations refuse to build it).
				checkIn := !packed || h.Symmetric()
				if err := checkAdjacency(h, base, keep, checkIn); err != nil {
					return fmt.Errorf("weighted=%t packed=%t: %w", weighted, packed, err)
				}
			}
		}
		return nil
	})
}

// checkAdjacency checks h's lists in both directions against those of
// base filtered by keep. One buffer is reused for every call, and
// vertices are visited in descending-degree order, so a stale tail left
// in it by a longer list would show up in a shorter one.
func checkAdjacency(h graph.Graph, base *graph.CSR, keep func(v, u graph.Vertex) bool, checkIn bool) error {
	type direction struct {
		name   string
		degree func(graph.Vertex) int
		adj    func(graph.Vertex, *graph.AdjBuf) ([]graph.Vertex, []graph.Weight)
		source func(graph.Vertex, *graph.AdjBuf) ([]graph.Vertex, []graph.Weight)
	}
	dirs := []direction{{"Out", h.OutDegree, h.OutAdj, base.OutAdj}}
	if checkIn {
		dirs = append(dirs, direction{"In", h.InDegree, h.InAdj, base.InAdj})
	}
	var buf graph.AdjBuf
	order := make([]graph.Vertex, h.NumVertices())
	for _, d := range dirs {
		for v := range order {
			order[v] = graph.Vertex(v)
		}
		sort.SliceStable(order, func(i, j int) bool { return d.degree(order[i]) > d.degree(order[j]) })
		for _, v := range order {
			nbrs, ws := d.adj(v, &buf)
			if len(nbrs) != d.degree(v) {
				return fmt.Errorf("%sAdj(%d) has %d entries, %sDegree says %d", d.name, v, len(nbrs), d.name, d.degree(v))
			}
			if (ws != nil) != h.Weighted() || (ws != nil && len(ws) != len(nbrs)) {
				return fmt.Errorf("%sAdj(%d): %d weights (nil=%t) for %d neighbors, Weighted()=%t",
					d.name, v, len(ws), ws == nil, len(nbrs), h.Weighted())
			}
			got, want := adjPairs(nbrs, ws), adjPairs(d.source(v, nil))
			want = slices.DeleteFunc(want, func(p adjPair) bool { return !keep(v, p.u) })
			if d.name == "In" {
				// The CSR transpose is filled in parallel, so only the
				// out-lists share an order across representations.
				slices.SortFunc(got, cmpAdjPair)
				slices.SortFunc(want, cmpAdjPair)
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("%sAdj(%d) is %v, the source CSR's %v", d.name, v, got, want)
			}
		}
	}
	return nil
}

// adjPair is one (neighbor, weight) entry; the weight is 0 on an
// unweighted graph.
type adjPair struct {
	u graph.Vertex
	w graph.Weight
}

func adjPairs(nbrs []graph.Vertex, ws []graph.Weight) []adjPair {
	out := make([]adjPair, len(nbrs))
	for i, u := range nbrs {
		out[i].u = u
		if ws != nil {
			out[i].w = ws[i]
		}
	}
	return out
}

func cmpAdjPair(a, b adjPair) int {
	return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.w, b.w))
}
