package proptest

import (
	"fmt"
	"math/bits"
	"testing"

	"julienne/internal/algo/densest"
	"julienne/internal/gen"
	"julienne/internal/graph"
)

// exhaustiveMaxN is the largest graph whose optimum density is found by
// enumerating every vertex subset.
const exhaustiveMaxN = 14

// TestCharikarMatchesOracle holds densest.Charikar to a sequential
// bucket-at-a-time peel on every symmetric family, both representations
// and P ∈ {1, max}: the same best density (exactly) after the same number
// of rounds, a vertex set whose recount is that density, and — on the
// case's graph when it is small and always on the subgraph its first
// exhaustiveMaxN vertices induce — at least half the optimum found by
// enumerating every subset.
func TestCharikarMatchesOracle(t *testing.T) {
	Check(t, gen.SymmetricFamilies(), func(c Case, g *graph.CSR) error {
		if err := checkCharikar(c, g); err != nil {
			return err
		}
		if n := g.NumVertices(); n > exhaustiveMaxN {
			var edges []graph.Edge
			for v := range graph.Vertex(exhaustiveMaxN) {
				for _, u := range g.OutEdges(v) {
					if u < exhaustiveMaxN {
						edges = append(edges, graph.Edge{U: v, V: u})
					}
				}
			}
			prefix := graph.FromEdges(exhaustiveMaxN, edges, graph.BuildOptions{Symmetrize: true, Dedup: true})
			if err := checkCharikar(c, prefix); err != nil {
				return fmt.Errorf("on the first %d vertices: %w", exhaustiveMaxN, err)
			}
		}
		return nil
	})
}

func checkCharikar(c Case, g *graph.CSR) error {
	res := densest.Charikar(c.Wrap(g), densest.Options{})
	best, size, steps := peelOracle(g)
	if res.Density != best || int64(len(res.Vertices)) != size || res.Rounds != steps {
		return fmt.Errorf("Charikar: density %v over %d vertices in %d rounds, oracle %v over %d in %d",
			res.Density, len(res.Vertices), res.Rounds, best, size, steps)
	}
	if got := densest.Density(g, res.Vertices); got != res.Density {
		return fmt.Errorf("Charikar: reported density %v, its %d vertices have %v", res.Density, len(res.Vertices), got)
	}
	if g.NumVertices() <= exhaustiveMaxN {
		if opt := optimumDensity(g); 2*res.Density < opt {
			return fmt.Errorf("Charikar: density %v below half the optimum %v", res.Density, opt)
		}
	}
	return nil
}

// peelOracle is Charikar's peel one bucket at a time: each step sets k
// to the larger of the last k and the least live degree, removes every
// live vertex of degree ≤ k, and records the survivors' density. It
// returns the best density (the whole graph's included), the size of
// the set that has it, and the number of steps.
func peelOracle(g *graph.CSR) (best float64, size, steps int64) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0, 0
	}
	deg, live := make([]int, n), make([]bool, n)
	for v := range deg {
		deg[v], live[v] = g.OutDegree(graph.Vertex(v)), true
	}
	edges, alive := g.NumEdges()/2, int64(n)
	best, size = float64(edges)/float64(alive), alive
	k := 0
	for ; alive > 0; steps++ {
		least := n
		for v, d := range deg {
			if live[v] {
				least = min(least, d)
			}
		}
		k = max(k, least)
		var peel []graph.Vertex
		for v, d := range deg {
			if live[v] && d <= k {
				peel = append(peel, graph.Vertex(v))
			}
		}
		// An edge falls with its first endpoint: the second is still
		// live when the first goes.
		for _, v := range peel {
			live[v] = false
			for _, u := range g.OutEdges(v) {
				if live[u] {
					deg[u]--
					edges--
				}
			}
		}
		if alive -= int64(len(peel)); alive > 0 && float64(edges)/float64(alive) > best {
			best, size = float64(edges)/float64(alive), alive
		}
	}
	return best, size, steps
}

// optimumDensity is the densest subgraph's density, by enumerating
// every non-empty vertex subset of a graph with at most exhaustiveMaxN
// vertices.
func optimumDensity(g *graph.CSR) float64 {
	n := g.NumVertices()
	adj := make([]uint32, n)
	for v := range adj {
		for _, u := range g.OutEdges(graph.Vertex(v)) {
			adj[v] |= 1 << u
		}
	}
	var best float64
	for s := uint32(1); s < 1<<n; s++ {
		ends := 0 // each internal edge is seen from both endpoints
		for v := range adj {
			if s&(1<<v) != 0 {
				ends += bits.OnesCount32(adj[v] & s)
			}
		}
		best = max(best, float64(ends)/2/float64(bits.OnesCount32(s)))
	}
	return best
}
