package proptest

import (
	"fmt"
	"math/bits"
	"testing"

	"julienne/internal/algo/densest"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/oracle"
)

// exhaustiveMaxN is the largest graph whose optimum density is found by
// enumerating every vertex subset.
const exhaustiveMaxN = 14

// TestDensestMatchesOracle holds densest.Find to a sequential
// densest-k-core search over oracle.Coreness on every symmetric family,
// both representations and P ∈ {1, max}: the same best density
// (exactly) over a set of the same size, a vertex set whose recount is
// that density, and — on the case's graph when it is small and always
// on the subgraph its first exhaustiveMaxN vertices induce — at least
// half the optimum found by enumerating every subset.
func TestDensestMatchesOracle(t *testing.T) {
	Check(t, gen.SymmetricFamilies(), func(c Case, g *graph.CSR) error {
		if err := checkDensest(c, g); err != nil {
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
			if err := checkDensest(c, prefix); err != nil {
				return fmt.Errorf("on the first %d vertices: %w", exhaustiveMaxN, err)
			}
		}
		return nil
	})
}

func checkDensest(c Case, g *graph.CSR) error {
	res := densest.Find(c.Wrap(g), densest.Options{})
	best, size := densestCoreOracle(g)
	if res.Density != best || int64(len(res.Vertices)) != size {
		return fmt.Errorf("densest: density %v over %d vertices, oracle %v over %d",
			res.Density, len(res.Vertices), best, size)
	}
	if got := densest.Density(g, res.Vertices); got != res.Density {
		return fmt.Errorf("densest: reported density %v, its %d vertices have %v", res.Density, len(res.Vertices), got)
	}
	if g.NumVertices() <= exhaustiveMaxN {
		if opt := optimumDensity(g); 2*res.Density < opt {
			return fmt.Errorf("densest: density %v below half the optimum %v", res.Density, opt)
		}
	}
	return nil
}

// densestCoreOracle tries every k-core of g in turn, from the whole
// graph up, counting each one's vertices and edge ends directly, and
// returns the best density and the size of the first (largest) k-core
// that has it.
func densestCoreOracle(g *graph.CSR) (best float64, size int64) {
	core := oracle.Coreness(g)
	var kmax uint32
	for _, c := range core {
		kmax = max(kmax, c)
	}
	for k := uint32(0); k <= kmax && len(core) > 0; k++ {
		var verts, ends int64
		for v, c := range core {
			if c < k {
				continue
			}
			verts++
			for _, u := range g.OutEdges(graph.Vertex(v)) {
				if core[u] >= k {
					ends++
				}
			}
		}
		if d := float64(ends) / 2 / float64(verts); k == 0 || d > best {
			best, size = d, verts
		}
	}
	return best, size
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
