package oracle

import (
	"julienne/internal/graph"
)

// Components labels every vertex with the smallest vertex id in its
// connected component, computed by the textbook method: one serial
// depth-first flood per unvisited vertex in increasing id order, so
// the flood root is automatically the component minimum. The graph
// must be undirected. Matches the canonical labeling of cc.Components.
func Components(g graph.Graph) []graph.Vertex {
	if !g.Symmetric() {
		panic("oracle: Components requires an undirected graph")
	}
	n := g.NumVertices()
	label := make([]graph.Vertex, n)
	for v := range label {
		label[v] = graph.NilVertex
	}
	var stack []graph.Vertex
	var buf graph.AdjBuf
	for v := 0; v < n; v++ {
		if label[v] != graph.NilVertex {
			continue
		}
		root := graph.Vertex(v)
		label[v] = root
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nbrs, _ := g.OutAdj(u, &buf)
			for _, w := range nbrs {
				if label[w] == graph.NilVertex {
					label[w] = root
					stack = append(stack, w)
				}
			}
		}
	}
	return label
}

// VerifyComponents checks canonical component labels against the
// serial flood-fill oracle.
func VerifyComponents(g graph.Graph, got []graph.Vertex) error {
	return Diff("components", got, Components(g))
}
