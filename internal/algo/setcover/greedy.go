package setcover

import (
	"julienne/internal/graph"
)

// Greedy is the exact sequential greedy set-cover algorithm (Johnson
// [27]): repeatedly choose the set covering the most uncovered
// elements. H_n approximation, O(M) work via a bucket queue over
// degrees with lazy (stale-entry) deletion. It is the oracle the
// parallel implementations' cover quality is compared against.
func Greedy(g graph.Graph, numSets int) Result {
	n := g.NumVertices()
	d := make([]uint32, numSets)
	maxD := uint32(0)
	for s := 0; s < numSets; s++ {
		d[s] = uint32(g.OutDegree(graph.Vertex(s)))
		if d[s] > maxD {
			maxD = d[s]
		}
	}
	covered := make([]bool, n)
	// bkts[k] holds (possibly stale) sets whose uncovered count was k
	// when pushed; a popped entry is live iff d[s] still equals k.
	bkts := make([][]uint32, maxD+1)
	for s := 0; s < numSets; s++ {
		if d[s] > 0 {
			bkts[d[s]] = append(bkts[d[s]], uint32(s))
		}
	}
	res := Result{InCover: make([]bool, numSets)}
	// The in-list is read inside the out-list loop: a decoding
	// representation needs a buffer for each.
	var outBuf, inBuf graph.AdjBuf
	for k := int(maxD); k >= 1; k-- {
		for len(bkts[k]) > 0 {
			s := bkts[k][len(bkts[k])-1]
			bkts[k] = bkts[k][:len(bkts[k])-1]
			if d[s] != uint32(k) {
				continue // stale entry; a live one sits in a lower bucket
			}
			// Choose s; cover its uncovered elements and decrement
			// every other set that also covered them.
			res.InCover[s] = true
			res.CoverSize++
			elems, _ := g.OutAdj(graph.Vertex(s), &outBuf)
			for _, e := range elems {
				if covered[e] {
					continue
				}
				covered[e] = true
				sets, _ := g.InAdj(e, &inBuf)
				for _, t := range sets {
					if t != s && d[t] > 0 && d[t] != inCover {
						d[t]--
						if d[t] > 0 {
							bkts[d[t]] = append(bkts[d[t]], t)
						}
					}
				}
			}
			d[s] = inCover
		}
	}
	return res
}
