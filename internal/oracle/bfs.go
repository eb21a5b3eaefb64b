package oracle

import (
	"fmt"

	"julienne/internal/graph"
)

// Unreached mirrors bfs.Unreached.
const Unreached int32 = -1

// BFSLevels is the textbook serial queue BFS, returning hop distances
// from src (Unreached for vertices the search does not reach).
func BFSLevels(g graph.Graph, src graph.Vertex) []int32 {
	n := g.NumVertices()
	if int(src) >= n {
		panic(fmt.Sprintf("oracle: source %d out of range for n=%d", src, n))
	}
	level := make([]int32, n)
	for v := range level {
		level[v] = Unreached
	}
	level[src] = 0
	queue := []graph.Vertex{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.OutNeighbors(v, func(u graph.Vertex, w graph.Weight) bool {
			if level[u] == Unreached {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
			return true
		})
	}
	return level
}

// VerifyBFS checks a parallel BFS result against the serial oracle:
// levels must match exactly, and the parent array must describe a
// valid BFS tree (the parallel search may pick any of several valid
// parents, so parents are checked structurally rather than diffed).
func VerifyBFS(g graph.Graph, src graph.Vertex, level []int32, parent []graph.Vertex) error {
	n := g.NumVertices()
	if len(level) != n {
		return fmt.Errorf("bfs: level length %d, want %d", len(level), n)
	}
	if err := Diff("bfs levels", level, BFSLevels(g, src)); err != nil {
		return err
	}
	if parent == nil {
		return nil
	}
	if len(parent) != n {
		return fmt.Errorf("bfs: parent length %d, want %d", len(parent), n)
	}
	for v := 0; v < n; v++ {
		p := parent[v]
		if graph.Vertex(v) == src || level[v] == Unreached {
			if p != graph.NilVertex {
				return fmt.Errorf("bfs: vertex %d (src or unreached) has parent %d", v, p)
			}
			continue
		}
		if p == graph.NilVertex {
			return fmt.Errorf("bfs: reached vertex %d has no parent", v)
		}
		if int(p) >= n {
			return fmt.Errorf("bfs: vertex %d has out-of-range parent %d", v, p)
		}
		if level[p]+1 != level[v] {
			return fmt.Errorf("bfs: vertex %d at level %d has parent %d at level %d",
				v, level[v], p, level[p])
		}
		edge := false
		g.OutNeighbors(p, func(u graph.Vertex, w graph.Weight) bool {
			if u == graph.Vertex(v) {
				edge = true
				return false
			}
			return true
		})
		if !edge {
			return fmt.Errorf("bfs: parent edge (%d,%d) does not exist", p, v)
		}
	}
	return nil
}
