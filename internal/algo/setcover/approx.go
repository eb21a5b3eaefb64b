package setcover

import (
	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/obs"
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
	rec := opt.Recorder

	// The round's bucket and the thresholds derived from it are loop
	// state the closures below read; they and the destination they
	// fill are built once per run.
	//
	// A set joins the cover if it won at least ⌈(1+ε)^(b-1)⌉ elements.
	// (The paper's pseudocode tests elmsWon > ⌈(1+ε)^max(b-1,0)⌉, which
	// at b = 0 would demand 2 wins from degree-1 sets and never
	// terminate; ≥ with the unclamped exponent keeps the intended
	// 1/(1+ε)-fraction rule and guarantees progress.)
	var bkt bucket.ID
	var degThreshold, winThreshold uint32
	m := newManis(work, numSets, rec,
		func(_ graph.Vertex, deg uint32) bool { return deg >= degThreshold },
		func(_ graph.Vertex, won uint32) bool { return won >= winThreshold })
	d := m.d

	bopt := opt.Buckets
	if bopt.Recorder == nil {
		bopt.Recorder = rec
	}
	b := bucket.New(numSets, func(s uint32) bucket.ID { return bz.bucketOf(d[s]) },
		bucket.Decreasing, bopt)

	var rebucket ligra.Tagged[bucket.Dest]
	move := func(s graph.Vertex) (bucket.Dest, bool) {
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
	}
	feed := func(j int) (uint32, bucket.Dest) { return rebucket.IDs[j], rebucket.Vals[j] }

	res := Result{InCover: m.inCover}
	var prevStats bucket.Stats
	cancel := obs.NewCancelCheck(opt.Ctx, opt.Deadline)
	for {
		if cause := cancel.Stopped(); cause != nil {
			res.Err = rec.NewCanceled("setcover", res.Rounds, cause)
			break
		}
		// sets aliases the bucket structure's arena: valid only until
		// the next NextBucket call, and fully consumed this round.
		var sets []uint32
		bkt, sets = b.NextBucket()
		if bkt == bucket.Nil {
			break
		}
		sp := rec.StartSpan("setcover.round").ArgInt("bucket", int64(bkt)).ArgInt("sets", int64(len(sets)))
		res.Rounds++
		res.SetsInspected += int64(len(sets))
		frontier := ligra.FromSparse(n, sets)
		degThreshold, winThreshold = ceilPow(eps, int64(bkt)), ceilPow(eps, int64(bkt)-1)

		m.elect(m.activate(frontier))

		// Rebucket the sets that did not join the cover (line 33).
		ligra.TagMap(frontier, move, &rebucket)
		b.UpdateBuckets(rebucket.Size(), feed)
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
