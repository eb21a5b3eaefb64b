// Package truss computes the k-truss decomposition of an undirected
// graph with bucketed peeling over *edge* identifiers. The paper's
// §3.1 designs the bucket interface over abstract identifiers
// precisely so that "identifiers represent other objects such as
// edges, triangles, or graph motifs"; this package is that claim made
// concrete: the identifiers in the bucket structure are edges, the
// bucket of an edge is its remaining triangle support, and peeling
// proceeds exactly as in k-core — min-support bucket first, with
// support decrements rebucketing the surviving edges.
//
// The trussness of edge e is the largest k such that e belongs to a
// subgraph in which every edge participates in at least k-2 triangles
// (so every edge of a graph with any edges has trussness >= 2, and
// edges of a triangle have trussness >= 3).
package truss

import (
	"slices"

	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// Result holds the edge-indexed decomposition.
type Result struct {
	// EdgeU/EdgeV list each undirected edge once with EdgeU < EdgeV;
	// Trussness is parallel to them.
	EdgeU, EdgeV []graph.Vertex
	Trussness    []uint32
	// Rounds is the number of peeling rounds (bucket extractions).
	Rounds int64
	// BucketStats is the edge-identifier traffic through the
	// structure.
	BucketStats bucket.Stats
}

// MaxTrussness returns the largest trussness, or 0 for edgeless input.
func (r Result) MaxTrussness() uint32 {
	if len(r.Trussness) == 0 {
		return 0
	}
	return parallel.Max(len(r.Trussness), 0, func(i int) uint32 { return r.Trussness[i] })
}

// Trussness runs the bucketed edge peel. The graph must be undirected
// (and is not modified).
func Trussness(g *graph.CSR) Result {
	if !g.Symmetric() {
		panic("truss: requires an undirected graph")
	}
	n := g.NumVertices()

	// Degree prefix sums recover each vertex's CSR slot base (valid
	// because truss never packs the graph).
	pref := make([]int64, n+1)
	for v := 0; v < n; v++ {
		pref[v+1] = pref[v] + int64(g.OutDegree(graph.Vertex(v)))
	}

	// Assign one identifier per undirected edge (the u < v direction)
	// and build the slot -> edge-id map for both directions so that
	// edgeID(a, b) is a binary search plus a lookup.
	slotOf := func(a, b graph.Vertex) int {
		nbrs := g.OutEdges(a)
		i, ok := slices.BinarySearch(nbrs, b)
		if !ok {
			return -1
		}
		return int(pref[a]) + i
	}
	totalSlots := int(g.NumEdges())
	slotEid := make([]int32, totalSlots)
	var eids int32
	for a := 0; a < n; a++ {
		av := graph.Vertex(a)
		base := int(pref[a])
		for i, b := range g.OutEdges(av) {
			if av < b {
				slotEid[base+i] = eids
				eids++
			}
		}
	}
	// Second pass: mirror direction points at the canonical id.
	parallel.For(n, 64, func(a int) {
		av := graph.Vertex(a)
		base := int(pref[a])
		for i, b := range g.OutEdges(av) {
			if av > b {
				slotEid[base+i] = slotEid[slotOf(b, av)]
			}
		}
	})
	m := int(eids)
	edgeID := func(a, b graph.Vertex) int32 {
		if a > b {
			a, b = b, a
		}
		return slotEid[slotOf(a, b)]
	}

	res := Result{
		EdgeU:     make([]graph.Vertex, m),
		EdgeV:     make([]graph.Vertex, m),
		Trussness: make([]uint32, m),
	}
	parallel.For(n, 64, func(a int) {
		av := graph.Vertex(a)
		base := int(pref[a])
		for i, b := range g.OutEdges(av) {
			if av < b {
				e := slotEid[base+i]
				res.EdgeU[e], res.EdgeV[e] = av, b
			}
		}
	})
	if m == 0 {
		return res
	}

	// Initial support: common neighbors of the endpoints.
	support := make([]uint32, m)
	parallel.For(m, 16, func(e int) {
		support[e] = uint32(intersectCount(g, res.EdgeU[e], res.EdgeV[e], nil))
	})

	peeled := make([]bool, m)
	b := bucket.New(m, func(e uint32) bucket.ID { return bucket.ID(support[e]) },
		bucket.Increasing, bucket.Options{})

	finished := 0
	var updIDs []uint32
	var updDests []bucket.Dest
	// The loop has no Ctx, so Run's error is always nil.
	res.Rounds, _ = bucket.Loop{Algo: "truss"}.Run(b, func(k, _ bucket.ID, ids []uint32) (int64, bool) {
		finished += len(ids)
		updIDs, updDests = updIDs[:0], updDests[:0]
		// Peel the batch sequentially: each destroyed triangle
		// decrements its two surviving edges exactly once (the
		// first-peeled edge of a triangle claims it; later edges of
		// the batch see the earlier ones already peeled).
		for _, eRaw := range ids {
			e := int32(eRaw)
			res.Trussness[e] = uint32(k) + 2
			peeled[e] = true
			a, c := res.EdgeU[e], res.EdgeV[e]
			intersectCount(g, a, c, func(w graph.Vertex) {
				e1 := edgeID(a, w)
				e2 := edgeID(c, w)
				if peeled[e1] || peeled[e2] {
					return // triangle already destroyed
				}
				for _, other := range []int32{e1, e2} {
					old := support[other]
					nw := max(old-1, uint32(k))
					if nw == old {
						continue
					}
					support[other] = nw
					if dest := b.GetBucket(bucket.ID(old), bucket.ID(nw)); dest != bucket.None {
						updIDs = append(updIDs, uint32(other))
						updDests = append(updDests, dest)
					}
				}
			})
		}
		b.UpdateBuckets(len(updIDs), func(j int) (uint32, bucket.Dest) {
			return updIDs[j], updDests[j]
		})
		return 0, finished == m
	})
	res.BucketStats = b.Stats()
	return res
}

// intersectCount intersects the sorted adjacencies of a and b; when
// visit is non-nil it is called per common neighbor, and the count is
// returned either way.
func intersectCount(g *graph.CSR, a, b graph.Vertex, visit func(w graph.Vertex)) int {
	x, y := g.OutEdges(a), g.OutEdges(b)
	i, j, c := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			c++
			if visit != nil {
				visit(x[i])
			}
			i++
			j++
		}
	}
	return c
}
