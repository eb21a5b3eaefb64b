package setcover

import (
	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// Approx runs the bucketed Blelloch et al. algorithm (Algorithm 3 of
// the paper) on the instance whose sets are vertices [0, numSets) of g.
// The graph is cloned internally (the algorithm packs covered elements
// out of adjacency lists).
//
// Ties between sets reserving the same element are broken by writeMin
// on set ids, which makes the chosen cover deterministic. Determinism
// also guarantees progress: in every round the smallest-id active set
// wins all elements it reserves and therefore enters the cover.
func Approx(g *graph.CSR, numSets int, opt Options) Result {
	return ApproxOn(g.Clone(), numSets, opt)
}

// ApproxOn is Approx over any packable graph representation (plain CSR
// or the Ligra+-style compressed graph, mirroring how the paper runs
// set cover on its compressed Hyperlink inputs). The graph is consumed:
// its adjacency is packed down to nothing as elements are covered.
func ApproxOn(work graph.Packer, numSets int, opt Options) Result {
	eps := opt.epsilon()
	bz := newBucketizer(eps)
	n := work.NumVertices()

	// El[e]: the set currently reserving element e (elmFree if none).
	// Covered[e] != 0 marks e covered. D[s]: uncovered elements still
	// covered by s, lazily maintained (inCover marks chosen sets).
	el := make([]uint32, n)
	covered := make([]uint32, n)
	d := make([]uint32, n)
	parallel.For(n, parallel.DefaultGrain, func(i int) {
		el[i] = elmFree
		if i < numSets {
			d[i] = uint32(work.OutDegree(graph.Vertex(i)))
		}
	})

	rec := opt.Recorder
	bopt := opt.Buckets
	if bopt.Recorder == nil {
		bopt.Recorder = rec
	}
	b := bucket.New(numSets, func(s uint32) bucket.ID { return bz.bucketOf(d[s]) },
		bucket.Decreasing, bopt)

	res := Result{InCover: make([]bool, numSets)}
	elmUncovered := func(_, e graph.Vertex) bool { return covered[e] == 0 }
	emOpts := ligra.EdgeMapOptions{NoDense: true, NoOutput: true, Recorder: rec}
	var prevStats bucket.Stats
	cancel := obs.NewCancelCheck(opt.Ctx, opt.Deadline)
	for {
		if cause := cancel.Stopped(); cause != nil {
			res.Err = rec.NewCanceled("setcover", res.Rounds, cause)
			break
		}
		// sets aliases the bucket structure's arena: valid only until
		// the next NextBucket call, and fully consumed this round.
		bkt, sets := b.NextBucket()
		if bkt == bucket.Nil {
			break
		}
		sp := rec.StartSpan("setcover.round").Arg("bucket", bkt).Arg("sets", len(sets))
		res.Rounds++
		res.SetsInspected += int64(len(sets))
		frontier := ligra.FromSparse(n, sets)

		// Phase 1 (lines 25–27): pack covered elements out of the
		// extracted sets' adjacency lists, update their degrees, and
		// keep the sets that still clear this bucket's threshold.
		setsD := ligra.EdgeMapPack(work, frontier, elmUncovered)
		parallel.For(setsD.Size(), parallel.DefaultGrain, func(i int) {
			d[setsD.IDs[i]] = setsD.Vals[i]
		})
		degThreshold := ceilPow(eps, int64(bkt))
		activeT := ligra.TagMapTagged(setsD, func(s graph.Vertex, deg uint32) (struct{}, bool) {
			return struct{}{}, deg >= degThreshold
		})
		active := active(activeT)

		// Phase 2 (lines 28–30): one MaNIS step. Active sets reserve
		// uncovered elements with writeMin on their ids; a set joins
		// the cover if it won at least ⌈(1+ε)^(b-1)⌉ elements. (The
		// paper's pseudocode tests elmsWon > ⌈(1+ε)^max(b-1,0)⌉, which
		// at b = 0 would demand 2 wins from degree-1 sets and never
		// terminate; ≥ with the unclamped exponent keeps the intended
		// 1/(1+ε)-fraction rule and guarantees progress.)
		ligra.EdgeMap(work, active,
			func(e graph.Vertex) bool { return covered[e] == 0 },
			func(s, e graph.Vertex, w graph.Weight) bool {
				parallel.WriteMinUint32(&el[e], uint32(s))
				return false
			}, emOpts)
		activeCts := ligra.EdgeMapFilterCount(work, active,
			func(s, e graph.Vertex) bool { return el[e] == uint32(s) })
		winThreshold := ceilPow(eps, int64(bkt)-1)
		parallel.For(activeCts.Size(), parallel.DefaultGrain, func(i int) {
			if activeCts.Vals[i] >= winThreshold {
				s := activeCts.IDs[i]
				d[s] = inCover
				res.InCover[s] = true
			}
		})

		// Phase 3 (lines 31–33): mark elements won by chosen sets as
		// covered, release the rest, and rebucket the sets that did
		// not join the cover.
		ligra.EdgeMap(work, active,
			nil, // every target
			func(s, e graph.Vertex, w graph.Weight) bool {
				// Only e's unique winner passes the check, but losers
				// read el[e] concurrently with the winner's store, so
				// the accesses must be atomic.
				if parallel.LoadUint32(&el[e]) == uint32(s) {
					if d[s] == inCover {
						parallel.StoreUint32(&covered[e], 1)
					} else {
						parallel.StoreUint32(&el[e], elmFree)
					}
				}
				return false
			}, emOpts)

		rebucket := ligra.TagMap(frontier, func(s graph.Vertex) (bucket.Dest, bool) {
			if d[s] == inCover {
				return bucket.None, false
			}
			next := bz.bucketOf(d[s])
			if next == bkt && d[s] < degThreshold && bkt > 0 {
				// Float rounding in bucketOf could otherwise park an
				// inactive set in the current bucket forever.
				next = bkt - 1
			}
			var dest bucket.Dest
			if next == bkt {
				// The set stays in the current bucket, but its physical
				// copy was consumed by extraction: reinsert (the fused
				// MaNIS loop revisits the bucket, §4.3).
				dest = b.GetBucket(bucket.Nil, next)
			} else {
				dest = b.GetBucket(bkt, next)
			}
			return dest, dest != bucket.None
		})
		b.UpdateBuckets(rebucket.Size(), func(j int) (uint32, bucket.Dest) {
			return rebucket.IDs[j], rebucket.Vals[j]
		})
		dur := sp.End()
		if rec != nil {
			cur := b.Stats()
			delta := cur.Sub(prevStats)
			prevStats = cur
			rec.RecordRound(obs.RoundMetrics{
				Algo: "setcover", Round: res.Rounds, Bucket: bkt,
				FrontierSize: len(sets),
				Dense:        false, // the MaNIS edge maps force NoDense
				Extracted:    delta.Extracted, Moved: delta.Moved,
				Skipped: delta.Skipped, Duration: dur,
			})
		}
	}
	res.CoverSize = len(CoverList(res.InCover))
	res.BucketStats = b.Stats()
	return res
}

// active converts a tagged subset to a plain one (helper for clarity).
func active(t ligra.Tagged[struct{}]) ligra.VertexSubset {
	return t.Untagged()
}
