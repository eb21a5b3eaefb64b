package setcover

import (
	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/ligra"
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
	lp := bucket.Loop{Algo: "setcover", Recorder: opt.Recorder, Ctx: opt.Ctx}

	// The round's bucket and the run's bucket structure are loop state
	// the closures below read; they and the destination they fill are
	// built once per run.
	var bkt bucket.ID
	var b *bucket.Par
	m := newManis(work, numSets, opt.Recorder)
	d := m.d

	var rebucket ligra.Tagged[bucket.Dest]
	move := func(s graph.Vertex) (bucket.Dest, bool) {
		if d[s] == inCover {
			return bucket.None, false
		}
		next := bz.bucketOf(d[s])
		if next == bkt && d[s] < m.degFloor && bkt > 0 {
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
	lp.With(numSets, nil, func(s uint32) bucket.ID { return bz.bucketOf(d[s]) }, bucket.Decreasing, opt.Buckets, func(par *bucket.Par) {
		b = par
		res.Rounds, res.Err = lp.Run(b, func(id bucket.ID, sets []uint32) (int64, bool) {
			bkt = id
			res.SetsInspected += int64(len(sets))
			frontier := ligra.FromSparse(n, sets)
			m.setBucket(eps, int64(bkt))

			m.elect(m.activate(frontier))

			// Rebucket the sets that did not join the cover (line 33).
			ligra.TagMap(frontier, move, &rebucket)
			b.UpdateBuckets(rebucket.Size(), feed)
			return 0, false
		})
		res.BucketStats = b.Stats()
	})
	res.CoverSize = parallel.Count(len(res.InCover), 0, func(i int) bool { return res.InCover[i] })
	return res
}
