// Package bfs implements frontier-based breadth-first search — the
// degenerate bucketing algorithm with a single bucket (§1: "frontier-
// based algorithms are ... bucketing-based algorithms that only use one
// bucket"). It doubles as the eccentricity estimator used to size wBFS
// experiments and as a connectivity oracle in tests.
package bfs

import (
	"fmt"
	"sync/atomic"

	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
)

// Unreached marks vertices the search did not reach.
const Unreached int32 = -1

// Result holds BFS outputs.
type Result struct {
	// Level[v] is the hop distance from the source, or Unreached.
	Level []int32
	// Parent[v] is the BFS-tree parent (NilVertex for the source and
	// unreached vertices).
	Parent []graph.Vertex
	// Rounds is the number of frontier expansions (the eccentricity of
	// the source plus one, on connected graphs).
	Rounds int64
}

// BFS runs a direction-optimized breadth-first search from src.
func BFS(g graph.Graph, src graph.Vertex) Result {
	n := g.NumVertices()
	if int(src) >= n {
		panic(fmt.Sprintf("bfs: source %d out of range for n=%d", src, n))
	}
	level := make([]int32, n)
	parent := make([]graph.Vertex, n)
	parallel.For(n, parallel.DefaultGrain, func(i int) {
		level[i] = Unreached
		parent[i] = graph.NilVertex
	})
	level[src] = 0
	res := Result{Level: level, Parent: parent}

	frontier := ligra.Single(n, src)
	for round := int32(1); !frontier.IsEmpty(); round++ {
		res.Rounds++
		frontier = ligra.EdgeMap(g, frontier,
			func(v graph.Vertex) bool { return atomic.LoadInt32(&level[v]) == Unreached },
			func(s, d graph.Vertex, w graph.Weight) bool {
				if atomic.CompareAndSwapInt32(&level[d], Unreached, round) {
					parent[d] = s
					return true
				}
				return false
			}, ligra.EdgeMapOptions{})
	}
	return res
}

// Eccentricity returns the largest finite BFS level from src.
func Eccentricity(g graph.Graph, src graph.Vertex) int32 {
	res := BFS(g, src)
	var ecc int32
	for _, l := range res.Level {
		if l > ecc {
			ecc = l
		}
	}
	return ecc
}
