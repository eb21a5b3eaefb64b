//go:build julienne_debug

package ligra

import (
	"fmt"

	"julienne/internal/graph"
)

// Debug half of the julienne_debug assertion pair (see the matching
// files in internal/bucket). VertexSubset documents that sparse inputs
// hold distinct in-range vertex ids — a duplicate or out-of-range id
// makes edgeMap visit neighbors twice or index out of bounds in the
// dense conversion — so tagged builds verify the contract at the one
// place sparse slices enter the model.

func debugCheckSparse(n int, ids []graph.Vertex) {
	seen := make(map[graph.Vertex]struct{}, len(ids))
	for _, v := range ids {
		if int(v) >= n {
			panic(fmt.Sprintf("ligra debug: sparse subset id %d out of range [0,%d)", v, n))
		}
		if _, dup := seen[v]; dup {
			panic(fmt.Sprintf("ligra debug: sparse subset contains duplicate id %d", v))
		}
		seen[v] = struct{}{}
	}
}

// debugCheckAdj verifies, at each traversal site, the two facts the
// plain loops rely on: the adjacency a representation hands back is
// exactly v's live degree long, and its weights are absent or parallel.
func debugCheckAdj(g graph.Graph, v graph.Vertex, in bool, nbrs []graph.Vertex, ws []graph.Weight) {
	deg := g.OutDegree(v)
	if in {
		deg = g.InDegree(v)
	}
	if len(nbrs) != deg {
		panic(fmt.Sprintf("ligra debug: adjacency of %d (in=%t) has %d entries, degree is %d", v, in, len(nbrs), deg))
	}
	if len(ws) != 0 && len(ws) != len(nbrs) {
		panic(fmt.Sprintf("ligra debug: adjacency of %d (in=%t) has %d neighbors but %d weights", v, in, len(nbrs), len(ws)))
	}
}

// debugPoison ends the lifetime of the result a destination last
// handed out, at the start of the next call that writes into it: every
// id is overwritten with ^0 and the arrays are dropped from dst, so the
// new result lands in fresh storage and a Tagged the caller kept indexes
// its per-vertex arrays out of range instead of reading the new round.
func debugPoison[T any](dst *Tagged[T]) {
	for i := range dst.IDs {
		dst.IDs[i] = ^graph.Vertex(0)
	}
	dst.IDs, dst.Vals = nil, nil
}

// debugCheckByID verifies what an identifier-order traversal relies on
// after each ordering: the bitmap is all zero again, over its whole
// capacity, so the next borrower starts clean, and the list is strictly
// increasing, so every source is relaxed once and in order.
func debugCheckByID(words []uint64, ids []graph.Vertex) {
	for i, w := range words {
		if w != 0 {
			panic(fmt.Sprintf("ligra debug: identifier-order bitmap word %d left %#x after the scan", i, w))
		}
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			panic(fmt.Sprintf("ligra debug: identifier-order list has %d after %d at %d", ids[i], ids[i-1], i))
		}
	}
}
