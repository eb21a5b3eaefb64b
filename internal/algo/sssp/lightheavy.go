package sssp

import (
	"math"
	"sync/atomic"

	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/parallel"
)

// DeltaSteppingLH is ∆-stepping with the Meyer–Sanders light/heavy edge
// split that §4.2 describes: the graph is split into light edges
// (weight ≤ ∆) and heavy edges (weight > ∆); inside an annulus only
// light edges are relaxed (repeatedly, until the annulus settles), and
// heavy edges of the settled vertices are relaxed exactly once when the
// algorithm leaves the annulus. The paper implemented this optimization
// and "did not find a significant improvement" — the ablation benchmark
// checks that observation.
//
// Because a heavy relaxation may target any bucket after the current
// one (including buckets the traversal would otherwise skip past), the
// annulus is iterated manually here: the bucket structure supplies the
// annulus fronts, and intra-annulus light rounds run outside it.
func DeltaSteppingLH(g graph.Graph, src graph.Vertex, delta int64, opt Options) Result {
	return runWaves(g, src, delta, opt, lightHeavySegment)
}

// lightHeavySegment splits the graph and returns the light/heavy body:
// one segment is the light rounds of an annulus until it settles, then
// one heavy round from everything it settled.
func lightHeavySegment(w *waves) segmentFunc {
	// Every edge with w ≤ ∆ must be classified light: the rebucketing
	// below treats any vertex landing in the current annulus as settled,
	// which is only sound because a genuinely heavy relaxation (w > ∆)
	// always lands beyond the annulus. Weights are int32, so capping the
	// threshold at MaxInt32 keeps the conversion in range while still
	// classifying every edge as light once ∆ exceeds the weight range.
	light, heavy := splitLightHeavy(w.g, graph.Weight(min(w.udelta, math.MaxInt32)))

	sp, b, res := w.sp, w.b, &w.res
	n := len(sp)
	always := func(graph.Vertex) bool { return true }
	// roundMark/annulusMark deduplicate activations; a vertex joins the
	// active set at most once per relaxation round, and the settled
	// set at most once per annulus segment.
	roundMark := make([]uint64, n)
	annulusMark := make([]uint64, n)
	var round, annulus, annulusEnd uint64

	type capture struct {
		oldDist  uint64
		captured bool
		active   bool
	}
	// relax is Algorithm 2's Update for both edge classes: the winner
	// of the flag transition captures the pre-segment distance for
	// rebucketing, and an improvement landing inside the annulus
	// additionally activates its target, once per round.
	relax := func(s, dst graph.Vertex, wt graph.Weight) (capture, bool) {
		nDist := load(sp, s) + uint64(wt)
		for {
			old := atomic.LoadUint64(&sp[dst])
			oDist := old &^ flag
			if nDist >= oDist {
				return capture{}, false
			}
			if atomic.CompareAndSwapUint64(&sp[dst], old, flag|nDist) {
				atomic.AddInt64(&res.Relaxations, 1)
				c := capture{oldDist: oDist, captured: old&flag == 0}
				if nDist < annulusEnd {
					for {
						rm := atomic.LoadUint64(&roundMark[dst])
						if rm == round {
							break
						}
						if atomic.CompareAndSwapUint64(&roundMark[dst], rm, round) {
							c.active = true
							break
						}
					}
				}
				return c, c.captured || c.active
			}
		}
	}

	// Each drained frontier is one segment of the (possibly fused)
	// annulus [id, last], with its own mark epoch. Without fusion there
	// is exactly one segment: a heavy edge (w > ∆) always leaves the
	// annulus. With fusion a heavy relaxation may land inside the fused
	// span (a heavy edge jumps more than one ∆-annulus but not
	// necessarily past the whole span); its target — settled this
	// segment or not — round-trips through the lazy buffer and comes
	// back as the next segment.
	return func(id, last bucket.ID, ids []uint32) {
		annulusEnd = (uint64(last) + 1) * w.udelta
		annulus++
		var capturedIDs []graph.Vertex
		var capturedOld []uint64

		// ids aliases the bucket arena (valid only until the next
		// structure call), but settled is appended to during the light
		// rounds and read by the heavy phase — so copy it out.
		settled := append([]graph.Vertex(nil), ids...)
		parallel.For(len(ids), parallel.DefaultGrain, func(i int) {
			annulusMark[ids[i]] = annulus
		})

		active := ids
		for len(active) > 0 {
			span := w.startRound(id, len(active))
			round++
			frontier := ligra.Frontier(light, active)
			edges := frontier.OutDegreeSum(light)
			moved := ligra.EdgeMapTagged(light, frontier, always, relax)
			var nextActive []graph.Vertex
			for i := 0; i < moved.Size(); i++ {
				v, c := moved.At(i)
				if c.captured {
					capturedIDs = append(capturedIDs, v)
					capturedOld = append(capturedOld, c.oldDist)
				}
				if c.active {
					// Joins this annulus' next light round.
					nextActive = append(nextActive, v)
					if annulusMark[v] != annulus {
						annulusMark[v] = annulus
						settled = append(settled, v)
					}
				}
			}
			// Bucket traffic moves at annulus granularity (extraction at
			// NextBucket, rebucketing at UpdateBuckets), so the annulus'
			// extraction delta lands on its first light round and its
			// rebucket delta on the next annulus'.
			w.endRound(span, id, len(active), edges)
			active = nextActive
		}

		// Heavy edges of every vertex settled in this annulus, once, as
		// one more round epoch: a target it activates is relaxed in the
		// next segment, not here.
		round++
		frontierH := ligra.Frontier(heavy, settled)
		atomic.AddInt64(&res.EdgesTraversed, frontierH.OutDegreeSum(heavy))
		movedH := ligra.EdgeMapTagged(heavy, frontierH, always, relax)
		for i := 0; i < movedH.Size(); i++ {
			if v, c := movedH.At(i); c.captured {
				capturedIDs = append(capturedIDs, v)
				capturedOld = append(capturedOld, c.oldDist)
			}
		}

		// Rebucket every captured vertex. Vertices this segment settled
		// (in-span and marked with the segment's epoch) must not be
		// reinserted — unless the heavy phase improved them afterwards
		// (marked with its round epoch): their edges were relaxed from a
		// stale distance. Those, and in-span vertices the light rounds
		// never activated, go through GetBucket, which routes them to
		// the lazy buffer for the next segment. All captured vertices
		// get their flags cleared.
		dests := make([]bucket.Dest, len(capturedIDs))
		parallel.For(len(capturedIDs), parallel.DefaultGrain, func(i int) {
			v := capturedIDs[i]
			newDist := sp[v] &^ flag
			sp[v] = newDist
			newB := w.bktOf(newDist)
			if newB >= id && newB <= last && annulusMark[v] == annulus && roundMark[v] != round {
				dests[i] = bucket.None
				return
			}
			dests[i] = b.GetBucket(w.bktOf(capturedOld[i]), newB)
		})
		b.UpdateBuckets(len(capturedIDs), func(j int) (uint32, bucket.Dest) {
			return capturedIDs[j], dests[j]
		})
	}
}

// splitLightHeavy partitions g's edges into a light graph (w ≤ limit)
// and a heavy graph (w > limit), both over the same vertex set.
func splitLightHeavy(g graph.Graph, limit graph.Weight) (light, heavy *graph.CSR) {
	n := g.NumVertices()
	var le, he []graph.Edge
	for v := 0; v < n; v++ {
		g.OutNeighbors(graph.Vertex(v), func(u graph.Vertex, w graph.Weight) bool {
			e := graph.Edge{U: graph.Vertex(v), V: u, W: w}
			if w <= limit {
				le = append(le, e)
			} else {
				he = append(he, e)
			}
			return true
		})
	}
	// The inputs are already simple; skip dedup to preserve weights and
	// order exactly.
	opt := graph.BuildOptions{Weighted: true, DropSelfLoops: false, Dedup: false}
	return graph.FromEdges(n, le, opt), graph.FromEdges(n, he, opt)
}
