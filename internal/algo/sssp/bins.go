package sssp

import (
	"sync/atomic"

	"julienne/internal/graph"
	"julienne/internal/parallel"
)

// DeltaSteppingBins is a GAP-benchmark-suite-style ∆-stepping: instead
// of a shared bucket structure it gives every worker thread-local bins
// and merges the lowest non-empty bin into a shared frontier after each
// relaxation round (§5: "Instead of having shared buckets, it uses
// thread-local bins to represent buckets"). Duplicate bin entries are
// filtered lazily by re-checking the tentative distance at pop time,
// exactly as GAP does. Each round's relaxation is one parallel.Workers
// region, whose worker index selects the bins.
//
// GAP stores bins in dense per-thread vectors; here they are sparse
// maps so that pathological ∆/weight combinations (e.g. ∆ = 1 with
// weights up to 10^5, giving ~10^7 mostly-empty bins) cost memory
// proportional to the non-empty bins only.
func DeltaSteppingBins(g graph.Graph, src graph.Vertex, delta int64) Result {
	checkInput(g, src)
	if delta <= 0 {
		panic("sssp: delta must be positive")
	}
	n := g.NumVertices()
	udelta := uint64(delta)
	dist := make([]uint64, n)
	parallel.For(n, parallel.DefaultGrain, func(i int) { dist[i] = inf })
	dist[src] = 0

	p := parallel.Procs()
	localBins := make([]map[uint64][]graph.Vertex, p)
	for w := range localBins {
		localBins[w] = make(map[uint64][]graph.Vertex)
	}
	bufs := make([]graph.AdjBuf, p)
	res := Result{}
	var edges, relaxations atomic.Int64

	frontier := []graph.Vertex{src}
	curBin := uint64(0)
	const noBin = uint64(1<<63 - 1)
	// relax is one worker's share of a round: it scatters the vertices
	// it improves into its own bins. Built once; a round reads frontier
	// and curBin.
	relax := func(w, lo, hi int) {
		bins := localBins[w]
		for _, v := range frontier[lo:hi] {
			dv := atomic.LoadUint64(&dist[v])
			if dv/udelta != curBin {
				continue // stale copy
			}
			nbrs, ws := g.OutAdj(v, &bufs[w])
			edges.Add(int64(len(nbrs)))
			for j, u := range nbrs {
				nd := dv + uint64(ws[j])
				if parallel.WriteMinUint64(&dist[u], nd) {
					relaxations.Add(1)
					b := nd / udelta
					bins[b] = append(bins[b], u)
				}
			}
		}
	}
	for {
		res.Rounds++
		// The fork cut-off is Julienne's sparse edgeMap's: the work is
		// the frontier (stale copies included) plus its out-degrees,
		// summed only when a second worker could be had.
		work := int64(len(frontier))
		if p > 1 {
			for _, v := range frontier {
				work += int64(g.OutDegree(v))
			}
		}
		parallel.Workers(len(frontier), min(parallel.WorkersFor(work), p), relax)

		// Find the lowest non-empty bin across workers (it may equal
		// curBin: intra-annulus light-edge reinsertion). Bins behind
		// the traversal hold only stale copies and are discarded.
		next := noBin
		for w := 0; w < p; w++ {
			for b := range localBins[w] {
				if b < curBin {
					delete(localBins[w], b)
					continue
				}
				if b < next {
					next = b
				}
			}
		}
		if next == noBin {
			break
		}
		frontier = frontier[:0]
		for w := 0; w < p; w++ {
			if batch, ok := localBins[w][next]; ok {
				frontier = append(frontier, batch...)
				delete(localBins[w], next)
			}
		}
		curBin = next
	}
	res.EdgesTraversed, res.Relaxations = edges.Load(), relaxations.Load()
	res.Dist = finalize(dist)
	return res
}
