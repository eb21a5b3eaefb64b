package setcover

import (
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
)

// ApproxPBBS is the PBBS-suite-style implementation of the Blelloch et
// al. algorithm [10]: the same MaNIS rounds as Approx, but without a
// bucket structure. Sets that are not chosen in a step are carried in
// the working list to the next step and re-inspected every round even
// when their degree has collapsed far below the current threshold —
// the work-inefficiency the paper's §5 comparison measures ("it
// carries them over to the next step"). Both implementations compute
// covers with the same guarantee.
func ApproxPBBS(g *graph.CSR, numSets int, opt Options) Result {
	return ApproxPBBSOn(g.Clone(), numSets, opt)
}

// ApproxPBBSOn is ApproxPBBS over any packable graph; the graph is
// consumed.
func ApproxPBBSOn(work graph.Packer, numSets int, opt Options) Result {
	eps := opt.epsilon()
	bz := newBucketizer(eps)
	n := work.NumVertices()

	el := make([]uint32, n)
	covered := make([]uint32, n)
	d := make([]uint32, n)
	maxBkt := int64(0)
	for i := 0; i < n; i++ {
		el[i] = elmFree
		if i < numSets {
			d[i] = uint32(work.OutDegree(graph.Vertex(i)))
			if b := bz.bucketOf(d[i]); b != ^uint32(0) && int64(b) > maxBkt {
				maxBkt = int64(b)
			}
		}
	}

	res := Result{InCover: make([]bool, numSets)}
	// The working list starts with every non-empty set and shrinks only
	// when sets join the cover or run out of uncovered elements.
	working := parallel.PackIndices(numSets, func(s int) bool { return d[s] > 0 })
	elmUncovered := func(_, e graph.Vertex) bool { return covered[e] == 0 }

	for bkt := maxBkt; bkt >= 0 && len(working) > 0; {
		res.Rounds++
		res.SetsInspected += int64(len(working))
		frontier := ligra.FromSparse(n, working)

		setsD := ligra.EdgeMapPack(work, frontier, elmUncovered)
		parallel.For(setsD.Size(), parallel.DefaultGrain, func(i int) {
			d[setsD.IDs[i]] = setsD.Vals[i]
		})
		degThreshold := ceilPow(eps, bkt)
		activeT := ligra.TagMapTagged(setsD, func(s graph.Vertex, deg uint32) (struct{}, bool) {
			return struct{}{}, deg >= degThreshold
		})
		act := activeT.Untagged()
		if act.IsEmpty() {
			// No set clears this threshold: move to the next step.
			working = parallel.FilterIndex(working, func(_ int, s graph.Vertex) bool {
				return d[s] > 0
			})
			bkt--
			continue
		}

		ligra.EdgeMap(work, act,
			func(e graph.Vertex) bool { return covered[e] == 0 },
			func(s, e graph.Vertex, w graph.Weight) bool {
				parallel.WriteMinUint32(&el[e], uint32(s))
				return false
			}, ligra.EdgeMapOptions{NoDense: true, NoOutput: true})
		activeCts := ligra.EdgeMapFilterCount(work, act,
			func(s, e graph.Vertex) bool { return el[e] == uint32(s) })
		winThreshold := ceilPow(eps, bkt-1)
		parallel.For(activeCts.Size(), parallel.DefaultGrain, func(i int) {
			if activeCts.Vals[i] >= winThreshold {
				s := activeCts.IDs[i]
				d[s] = inCover
				res.InCover[s] = true
			}
		})
		ligra.EdgeMap(work, act,
			nil, // every target
			func(s, e graph.Vertex, w graph.Weight) bool {
				if parallel.LoadUint32(&el[e]) == uint32(s) {
					if d[s] == inCover {
						parallel.StoreUint32(&covered[e], 1)
					} else {
						parallel.StoreUint32(&el[e], elmFree)
					}
				}
				return false
			}, ligra.EdgeMapOptions{NoDense: true, NoOutput: true})

		// Carry everything not chosen and not exhausted — including
		// sets far below the threshold (the inefficiency).
		working = parallel.FilterIndex(working, func(_ int, s graph.Vertex) bool {
			return d[s] != inCover && d[s] > 0
		})
	}
	res.CoverSize = len(CoverList(res.InCover))
	return res
}
