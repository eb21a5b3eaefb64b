// Package gen generates the synthetic graph workloads the experiments
// run on. The paper evaluates on real social networks and hyperlink
// crawls (com-Orkut, Twitter, Friendster, Hyperlink2012/2014, Table 2);
// those inputs are multi-gigabyte downloads, so this reproduction
// substitutes generators that control the structural properties the
// evaluation actually exercises:
//
//   - RMAT / Chung–Lu power-law graphs: heavy-tailed degrees and small
//     diameter, the regime of the paper's social/hyperlink graphs, used
//     for k-core, wBFS and set cover;
//   - grid/road-like graphs: large diameter and bounded degree, the
//     regime where ∆-stepping's annulus structure matters;
//   - uniform random degree-d graphs: the §3.4 microbenchmark input;
//   - random bipartite incidence graphs: set-cover instances.
//
// Every generator takes an explicit seed and is fully deterministic.
package gen

import (
	"math"

	"julienne/internal/graph"
	"julienne/internal/parallel"
	"julienne/internal/rng"
)

// ErdosRenyi returns a simple directed (or symmetric) graph with n
// vertices and approximately m edges sampled uniformly. Duplicates and
// self-loops are removed, so the realized edge count can be slightly
// below m.
func ErdosRenyi(n int, m int, symmetric bool, seed uint64) *graph.CSR {
	r := rng.New(seed)
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := graph.Vertex(r.IntN(n))
		v := graph.Vertex(r.IntN(n))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	opt := graph.DefaultBuild
	opt.Symmetrize = symmetric
	return graph.FromEdges(n, edges, opt)
}

// RandomRegular returns a graph where every vertex draws d out-neighbors
// uniformly at random — the "degree-8 random graph" of the bucketing
// microbenchmark (§3.4) with d = 8. Self-loops and duplicates are
// removed, so out-degrees are at most d.
func RandomRegular(n, d int, symmetric bool, seed uint64) *graph.CSR {
	edges := make([]graph.Edge, 0, n*d)
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			u := graph.Vertex(rng.UintNAt(seed, uint64(v*d+j), uint64(n)))
			edges = append(edges, graph.Edge{U: graph.Vertex(v), V: u})
		}
	}
	opt := graph.DefaultBuild
	opt.Symmetrize = symmetric
	return graph.FromEdges(n, edges, opt)
}

// RMAT samples m edges from the recursive-matrix distribution with the
// canonical Graph500 parameters (a, b, c, d) = (0.57, 0.19, 0.19, 0.05),
// producing the skewed degree distributions of social networks. n is
// rounded up to a power of two internally but the returned graph keeps
// the requested n by rejecting out-of-range endpoints and self-loops;
// for n < 2 every sample would be rejected, so the graph is edgeless.
//
// Sampling attempt j reads draws j·L … j·L+L−1 of the splitmix64 stream
// New(seed), one per level (L = log₂ of n rounded up), accepted or not.
// Blocks of rmatBlock attempts therefore run in parallel, each starting
// its draws at rng.NextAt, and the accepted edges of the blocks are
// concatenated in block order: the edge list, and so the graph, is the
// one a sequential sampler produces, at any GOMAXPROCS.
func RMAT(n, m int, symmetric bool, seed uint64) *graph.CSR {
	opt := graph.DefaultBuild
	opt.Symmetrize = symmetric
	if n < 2 || m <= 0 {
		return graph.FromEdges(n, nil, opt)
	}
	levels := 0
	for (1 << levels) < n {
		levels++
	}
	// A round samples the blocks the missing edges need if none were
	// rejected, in place past the accepted prefix; the room for the last
	// block's overshoot is the rmatBlock beyond m.
	edges := make([]graph.Edge, 0, m+rmatBlock)
	var attempts uint64
	for len(edges) < m {
		have := len(edges)
		nb := (m - have + rmatBlock - 1) / rmatBlock
		buf := edges[have : have+nb*rmatBlock]
		kept := make([]int, nb)
		parallel.For(nb, 1, func(b int) {
			first := attempts + uint64(b*rmatBlock)
			kept[b] = rmatSample(buf[b*rmatBlock:(b+1)*rmatBlock], seed, first*uint64(levels), levels, n)
		})
		attempts += uint64(nb * rmatBlock)
		w := have
		for b := 0; b < nb && w < m; b++ {
			from := have + b*rmatBlock
			k := min(kept[b], m-w)
			if w != from {
				copy(edges[w:w+k], edges[from:from+k])
			}
			w += k
		}
		edges = edges[:w]
	}
	return graph.FromEdges(n, edges, opt)
}

// rmatBlock is how many sampling attempts one parallel block of RMAT
// makes: ≈70 µs of draws at n = 2¹⁷, far above a region's fork cost.
const rmatBlock = 4096

// The Graph500 quadrant probabilities a, b, c (d = 1 − a − b − c).
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// rmatCuts are the quadrant thresholds a, a+b, a+b+c as integers on the
// 53-bit draw y = x>>11 that Float64 scales by 2⁻⁵³: y/2⁵³ < t exactly
// when y < ⌈t·2⁵³⌉, so comparing integers picks the quadrant the float
// test Float64() < t picks, bit for bit. The sums are exact constant
// arithmetic, rounded to float64 once, as that test rounds them.
var rmatCuts = [3]uint64{rmatCut(rmatA), rmatCut(rmatA + rmatB), rmatCut(rmatA + rmatB + rmatC)}

func rmatCut(t float64) uint64 { return uint64(math.Ceil(t * (1 << 53))) }

// rmatSample makes len(out) sampling attempts of levels draws each,
// starting at draw number at of the stream New(seed). It writes the
// accepted edges to the front of out in attempt order and returns how
// many there are. Quadrant and acceptance are computed without
// branches: (c-1-y)>>63 is 1 exactly when y ≥ c, as both are below
// 2⁵³, and (x-n)>>63 is 1 exactly when x < n.
func rmatSample(out []graph.Edge, seed, at uint64, levels, n int) int {
	c1, c2, c3 := rmatCuts[0]-1, rmatCuts[1]-1, rmatCuts[2]-1
	nn, top := uint64(n), uint64(1)<<levels
	k := 0
	for range out {
		var u, v uint64
		for bit := uint64(1); bit < top; bit <<= 1 {
			y := rng.NextAt(seed, at) >> 11
			at++
			b1, b2, b3 := (c1-y)>>63, (c2-y)>>63, (c3-y)>>63
			u |= -b2 & bit
			v |= -(b1 ^ b2 ^ b3) & bit
		}
		out[k] = graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)}
		d := u ^ v
		k += int(((u - nn) >> 63) & ((v - nn) >> 63) & ((d | -d) >> 63))
	}
	return k
}

// ChungLu samples m edges where vertex i is chosen with probability
// proportional to (i+1)^(-1/(beta-1)), giving a power-law degree
// distribution with exponent beta (use beta ≈ 2.1–3 for social-like
// graphs). Endpoints are sampled independently (the Chung–Lu model).
func ChungLu(n, m int, beta float64, symmetric bool, seed uint64) *graph.CSR {
	// Build the cumulative weight table once; per-edge sampling is a
	// binary search over it.
	exp := -1.0 / (beta - 1.0)
	cum := make([]float64, n+1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + math.Pow(float64(i+1), exp)
	}
	total := cum[n]
	r := rng.New(seed)
	sample := func() graph.Vertex {
		x := r.Float64() * total
		lo, hi := 0, n
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= x {
				lo = mid
			} else {
				hi = mid
			}
		}
		return graph.Vertex(lo)
	}
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: sample(), V: sample()})
	}
	opt := graph.DefaultBuild
	opt.Symmetrize = symmetric
	return graph.FromEdges(n, edges, opt)
}

// Grid2D returns the rows×cols 4-neighbor mesh, a road-network stand-in:
// bounded degree and Θ(rows+cols) diameter, the regime in which
// ∆-stepping's bucket count is large (Figure 4's road-like behaviour).
// The graph is symmetric.
func Grid2D(rows, cols int) *graph.CSR {
	id := func(r, c int) graph.Vertex { return graph.Vertex(r*cols + c) }
	edges := make([]graph.Edge, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	opt := graph.DefaultBuild
	opt.Symmetrize = true
	return graph.FromEdges(rows*cols, edges, opt)
}

// Path returns the n-vertex path graph (symmetric), the worst case for
// round counts: diameter n-1.
func Path(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i + 1)})
	}
	opt := graph.DefaultBuild
	opt.Symmetrize = true
	return graph.FromEdges(n, edges, opt)
}

// Cycle returns the n-vertex cycle graph (symmetric). Every vertex has
// degree 2, so k-core peels the whole graph in one round at k = 2.
func Cycle(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(i), V: graph.Vertex((i + 1) % n)})
	}
	opt := graph.DefaultBuild
	opt.Symmetrize = true
	return graph.FromEdges(n, edges, opt)
}

// Star returns the n-vertex star graph (symmetric): vertex 0 is the hub.
func Star(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.Vertex(i)})
	}
	opt := graph.DefaultBuild
	opt.Symmetrize = true
	return graph.FromEdges(n, edges, opt)
}

// Complete returns the complete graph K_n (symmetric); its coreness is
// n-1 everywhere, a useful k-core fixture.
func Complete(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(i), V: graph.Vertex(j)})
		}
	}
	opt := graph.DefaultBuild
	opt.Symmetrize = true
	return graph.FromEdges(n, edges, opt)
}
