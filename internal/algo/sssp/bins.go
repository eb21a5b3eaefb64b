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
// proportional to the non-empty bins only. A bin that is consumed or
// found stale goes back to its worker's spare list with its capacity
// and is reused for the next new bin, so a run allocates bins for the
// most it holds at once, not for every round.
func DeltaSteppingBins(g graph.Graph, src graph.Vertex, delta int64) Result {
	checkInput(g, src)
	if delta <= 0 {
		panic("sssp: delta must be positive")
	}
	n := g.NumVertices()
	udelta := uint64(delta)
	dist := make([]int64, n)
	parallel.For(n, parallel.DefaultGrain, func(i int) { dist[i] = int64(inf) })
	dist[src] = 0

	p := parallel.Procs()
	localBins := make([]binSet, p)
	for w := range localBins {
		localBins[w].bins = make(map[uint64]*[]graph.Vertex)
	}
	bufs := make([]graph.AdjBuf, p)
	counts := make([]binCounts, p)
	res := Result{}

	frontier := []graph.Vertex{src}
	curBin := uint64(0)
	const noBin = uint64(1<<63 - 1)
	// relax is one worker's share of a round: it scatters the vertices
	// it improves into its own bins and counts into its own counters.
	// Built once; a round reads frontier, curBin and plain, which is set
	// when the round runs on one worker: nothing races then, so it
	// writes with plain loads and stores, as EdgeMapWriteMin does.
	var plain bool
	relax := func(w, lo, hi int) {
		bins, c := &localBins[w], &counts[w]
		for _, v := range frontier[lo:hi] {
			var dv uint64
			if plain {
				dv = uint64(dist[v])
			} else {
				dv = uint64(atomic.LoadInt64(&dist[v]))
			}
			if dv/udelta != curBin {
				continue // stale copy
			}
			nbrs, ws := g.OutAdj(v, &bufs[w])
			c.edges += int64(len(nbrs))
			for j, u := range nbrs {
				nd := int64(dv + uint64(ws[j]))
				if plain {
					if nd >= dist[u] {
						continue
					}
					dist[u] = nd
				} else if !parallel.WriteMinInt64(&dist[u], nd) {
					continue
				}
				c.relaxations++
				bins.add(uint64(nd)/udelta, u)
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
		nw := min(parallel.WorkersFor(work), p, len(frontier))
		plain = nw == 1
		parallel.Workers(len(frontier), nw, relax)

		// Find the lowest non-empty bin across workers (it may equal
		// curBin: intra-annulus light-edge reinsertion). Bins behind
		// the traversal hold only stale copies and are discarded.
		next := noBin
		for w := 0; w < p; w++ {
			for b, bin := range localBins[w].bins {
				if b < curBin {
					localBins[w].drop(b, bin)
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
			if bin, ok := localBins[w].bins[next]; ok {
				frontier = append(frontier, *bin...)
				localBins[w].drop(next, bin)
			}
		}
		curBin = next
	}
	for _, c := range counts {
		res.EdgesTraversed += c.edges
		res.Relaxations += c.relaxations
	}
	res.Dist = finalize(dist)
	return res
}

// binCounts is one worker's tally across DeltaSteppingBins's rounds,
// summed after the last join. Padded to a cache line, since a worker
// writes its own per edge.
type binCounts struct {
	edges, relaxations int64
	_                  [48]byte
}

// binSet is one worker's bins, keyed by bin index, and its spare list:
// emptied bins with their capacity kept. Padded to a cache line, since
// a worker writes its own spare list when it opens a bin.
type binSet struct {
	bins  map[uint64]*[]graph.Vertex
	spare []*[]graph.Vertex
	_     [32]byte
}

// add appends v to bin b, opening it from the spare list when b is not
// in the set.
func (s *binSet) add(b uint64, v graph.Vertex) {
	bin := s.bins[b]
	if bin == nil {
		if k := len(s.spare); k > 0 {
			bin, s.spare = s.spare[k-1], s.spare[:k-1]
		} else {
			bin = new([]graph.Vertex)
		}
		s.bins[b] = bin
	}
	*bin = append(*bin, v)
}

// drop removes bin b, whose slice is bin, from the set and empties it
// onto the spare list.
func (s *binSet) drop(b uint64, bin *[]graph.Vertex) {
	delete(s.bins, b)
	*bin = (*bin)[:0]
	s.spare = append(s.spare, bin)
}
