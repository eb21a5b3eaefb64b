//go:build !julienne_debug

package ligra

import "julienne/internal/graph"

// Release half of the julienne_debug assertion pair; see debug_on.go.

func debugCheckSparse(n int, ids []graph.Vertex) {}

func debugCheckAdj(g graph.Graph, v graph.Vertex, in bool, nbrs []graph.Vertex, ws []graph.Weight) {
}

func debugPoison[T any](dst *Tagged[T]) {}

func debugCheckByID(words []uint64, ids []graph.Vertex) {}
