package graph

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"julienne/internal/rng"
)

// fromEdgesBySort is the CSR build FromEdges replaced, kept as its
// reference: materialize the entries (each edge, then its reverse when
// symmetrizing, self-loops dropped if asked), stable-sort them by
// (source, target), drop adjacent duplicates keeping the first, and
// lay the result out.
func fromEdgesBySort(n int, edges []Edge, opt BuildOptions) *CSR {
	work := make([]Edge, 0, len(edges)*2)
	for _, e := range edges {
		if opt.DropSelfLoops && e.U == e.V {
			continue
		}
		work = append(work, e)
		if opt.Symmetrize && e.U != e.V {
			work = append(work, Edge{U: e.V, V: e.U, W: e.W})
		}
	}
	slices.SortStableFunc(work, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	if opt.Dedup {
		work = slices.CompactFunc(work, func(a, b Edge) bool { return a.U == b.U && a.V == b.V })
	}
	offsets := make([]uint64, n+1)
	for _, e := range work {
		offsets[e.U+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	edg := make([]Vertex, len(work))
	var wgt []Weight
	if opt.Weighted {
		wgt = make([]Weight, len(work))
	}
	for i, e := range work {
		edg[i] = e.V
		if wgt != nil {
			wgt[i] = e.W
		}
	}
	return NewCSR(n, offsets, edg, wgt, opt.Symmetrize)
}

// sameCSR reports the first difference between two CSRs' bytes.
func sameCSR(got, want *CSR) error {
	switch {
	case got.n != want.n:
		return fmt.Errorf("n = %d, want %d", got.n, want.n)
	case got.symmetric != want.symmetric:
		return fmt.Errorf("symmetric = %v, want %v", got.symmetric, want.symmetric)
	case (got.outWgt == nil) != (want.outWgt == nil):
		return fmt.Errorf("weighted = %v, want %v", got.outWgt != nil, want.outWgt != nil)
	case !slices.Equal(got.outOff, want.outOff):
		return fmt.Errorf("offsets differ")
	case !slices.Equal(got.outEdg, want.outEdg):
		return fmt.Errorf("targets differ")
	case !slices.Equal(got.outWgt, want.outWgt):
		return fmt.Errorf("weights differ (a duplicate kept another occurrence's weight)")
	}
	return nil
}

// TestFromEdgesMatchesSortBuild: under every combination of the four
// build options, on random edge lists full of self-loops and of
// duplicates carrying different weights, the counting-sort build lays
// out exactly the bytes the stable sort does — at several GOMAXPROCS,
// with lists long enough to split into blocks.
func TestFromEdgesMatchesSortBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, 2, 3, 1000} {
		for _, m := range []int{0, 1, 50, 20000} {
			if n == 0 && m > 0 {
				continue // every edge would be out of range
			}
			r := rng.New(uint64(n*100003 + m))
			edges := make([]Edge, m)
			for i := range edges {
				// Half the edges land on a few vertices so duplicates
				// and self-loops are common at every n.
				span := n
				if i%2 == 0 {
					span = min(n, 4)
				}
				edges[i] = Edge{U: Vertex(r.IntN(span)), V: Vertex(r.IntN(span)), W: Weight(r.IntN(100))}
			}
			orig := slices.Clone(edges)
			for bits := 0; bits < 16; bits++ {
				opt := BuildOptions{Weighted: bits&1 != 0, Symmetrize: bits&2 != 0,
					DropSelfLoops: bits&4 != 0, Dedup: bits&8 != 0}
				want := fromEdgesBySort(n, edges, opt)
				for _, p := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(p)
					if err := sameCSR(FromEdges(n, edges, opt), want); err != nil {
						t.Fatalf("n=%d m=%d %+v P=%d: %v", n, m, opt, p, err)
					}
				}
			}
			if !slices.Equal(edges, orig) {
				t.Fatalf("n=%d m=%d: FromEdges modified its input", n, m)
			}
		}
	}
}
