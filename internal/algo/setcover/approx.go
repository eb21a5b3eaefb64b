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
	// A set's value is its uncovered-element count, and it joins the
	// cover if it won at least ⌈(1+ε)^(b-1)⌉ elements. (The paper's
	// pseudocode tests elmsWon > ⌈(1+ε)^max(b-1,0)⌉, which at b = 0 would
	// demand 2 wins from degree-1 sets and never terminate; ≥ with the
	// unclamped exponent keeps the intended 1/(1+ε)-fraction rule and
	// guarantees progress.)
	return approx(work, numSets, opt,
		func(_, d uint32) bucket.ID { return bz.bucketOf(d) },
		func(_ graph.Vertex, count uint32) float64 { return float64(count) },
		func(b int64) float64 { return float64(ceilPow(eps, b)) })
}

// approx is Algorithm 3's bucketed body, which both covers run. A cover
// is its priority function and its two thresholds: bucketOf(s, d) is
// the bucket of set s with d uncovered elements, value(s, count) is
// what count of s's elements are worth, and floor(b) is the value that
// bucket b stands for. In the round of bucket b a set stays active
// while its uncovered elements are worth floor(b), and joins the cover
// if the elements it won are worth floor(b-1).
func approx(work graph.Packer, numSets int, opt Options,
	bucketOf func(s, d uint32) bucket.ID,
	value func(s graph.Vertex, count uint32) float64,
	floor func(b int64) float64) Result {

	n := work.NumVertices()
	lp := bucket.Loop{Algo: "setcover", Recorder: opt.Recorder, Ctx: opt.Ctx}

	// The round's bucket and the thresholds derived from it are loop
	// state the closures below read; they and the destination they
	// fill are built once per run.
	var bkt bucket.ID
	var activeFloor, winFloor float64
	m := newManis(work, numSets, opt.Recorder,
		func(s graph.Vertex, deg uint32) bool { return value(s, deg) >= activeFloor },
		func(s graph.Vertex, won uint32) bool { return value(s, won) >= winFloor })
	d := m.d
	b := lp.New(numSets, func(s uint32) bucket.ID { return bucketOf(s, d[s]) },
		bucket.Decreasing, opt.Buckets)

	var rebucket ligra.Tagged[bucket.Dest]
	move := func(s graph.Vertex) (bucket.Dest, bool) {
		if d[s] == inCover {
			return bucket.None, false
		}
		next := bucketOf(s, d[s])
		if next == bkt && value(s, d[s]) < activeFloor && bkt > 0 {
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
	res.Rounds, res.Err = lp.Run(b, func(first, _ bucket.ID, sets []uint32) (int64, bool) {
		bkt = first
		res.SetsInspected += int64(len(sets))
		frontier := ligra.FromSparse(n, sets)
		activeFloor, winFloor = floor(int64(bkt)), floor(int64(bkt)-1)

		m.elect(m.activate(frontier))

		// Rebucket the sets that did not join the cover (line 33).
		ligra.TagMap(frontier, move, &rebucket)
		b.UpdateBuckets(rebucket.Size(), feed)
		return 0, false
	})
	res.CoverSize = parallel.Count(len(res.InCover), 0, func(i int) bool { return res.InCover[i] })
	res.BucketStats = b.Stats()
	return res
}
