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

	// The step's thresholds are loop state the MaNIS closures read.
	var degThreshold, winThreshold uint32
	m := newManis(work, numSets, nil,
		func(_ graph.Vertex, deg uint32) bool { return deg >= degThreshold },
		func(_ graph.Vertex, won uint32) bool { return won >= winThreshold })
	d := m.d
	maxBkt := int64(0)
	for s := 0; s < numSets; s++ {
		if b := bz.bucketOf(d[s]); b != ^uint32(0) && int64(b) > maxBkt {
			maxBkt = int64(b)
		}
	}

	res := Result{InCover: m.inCover}
	// The working list starts with every non-empty set and shrinks only
	// when sets join the cover or run out of uncovered elements.
	working := parallel.PackIndices(numSets, func(s int) bool { return d[s] > 0 })

	for bkt := maxBkt; bkt >= 0 && len(working) > 0; {
		res.Rounds++
		res.SetsInspected += int64(len(working))
		degThreshold, winThreshold = ceilPow(eps, bkt), ceilPow(eps, bkt-1)

		act := m.activate(ligra.FromSparse(n, working))
		if act.IsEmpty() {
			// No set clears this threshold: move to the next step.
			working = parallel.FilterIndex(working, func(_ int, s graph.Vertex) bool {
				return d[s] > 0
			})
			bkt--
			continue
		}
		m.elect(act)

		// Carry everything not chosen and not exhausted — including
		// sets far below the threshold (the inefficiency).
		working = parallel.FilterIndex(working, func(_ int, s graph.Vertex) bool {
			return d[s] != inCover && d[s] > 0
		})
	}
	res.CoverSize = len(CoverList(res.InCover))
	return res
}
