package proptest

import (
	"fmt"
	"sort"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/rng"
)

// TestAdjacencyFormsAgree pins the graph.Graph adjacency contract on
// both implementers: the slice form (OutAdj/InAdj) and the callback form
// (OutNeighbors/InNeighbors) are the same (neighbor, weight) sequence,
// as long as the live degree says, with nil weights exactly on
// unweighted graphs — fresh and after PackOut has shortened a seeded
// random half of the lists. The out-lists are also held against the
// source CSR (filtered the same way), so the forms cannot agree on a
// wrong answer.
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

// checkAdjacency compares the two iteration forms of h in both
// directions, and h's out-lists against those of base filtered by keep.
// One buffer is reused for every call, and vertices are visited in
// descending-degree order, so a stale tail left in it by a longer list
// would show up in a shorter one.
func checkAdjacency(h graph.Graph, base *graph.CSR, keep func(v, u graph.Vertex) bool, checkIn bool) error {
	type direction struct {
		name   string
		degree func(graph.Vertex) int
		adj    func(graph.Vertex, *graph.AdjBuf) ([]graph.Vertex, []graph.Weight)
		each   func(graph.Vertex, func(graph.Vertex, graph.Weight) bool)
	}
	dirs := []direction{{"Out", h.OutDegree, h.OutAdj, h.OutNeighbors}}
	if checkIn {
		dirs = append(dirs, direction{"In", h.InDegree, h.InAdj, h.InNeighbors})
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
			if d.name == "Out" {
				k := 0
				baseW := base.OutWeights(v)
				for j, u := range base.OutEdges(v) {
					if !keep(v, u) {
						continue
					}
					if k >= len(nbrs) || nbrs[k] != u || (ws != nil && ws[k] != baseW[j]) {
						return fmt.Errorf("OutAdj(%d) entry %d differs from the source CSR's (%d)", v, k, u)
					}
					k++
				}
				if k != len(nbrs) {
					return fmt.Errorf("OutAdj(%d) has %d entries, the source CSR %d", v, len(nbrs), k)
				}
			}
			i := 0
			var err error
			d.each(v, func(u graph.Vertex, w graph.Weight) bool {
				var want graph.Weight
				if i < len(ws) {
					want = ws[i]
				}
				if i >= len(nbrs) || nbrs[i] != u || want != w {
					err = fmt.Errorf("%sNeighbors(%d) entry %d is (%d, %d), %sAdj disagrees", d.name, v, i, u, w, d.name)
					return false
				}
				i++
				return true
			})
			if err != nil {
				return err
			}
			if i != len(nbrs) {
				return fmt.Errorf("%sNeighbors(%d) yielded %d entries, %sAdj %d", d.name, v, i, d.name, len(nbrs))
			}
		}
	}
	return nil
}
