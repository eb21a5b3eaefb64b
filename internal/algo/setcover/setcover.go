// Package setcover implements (1+ε)·H_n-approximate set cover on
// bipartite incidence graphs, following §4.3 of the paper:
//
//   - Approx: the work-efficient bucketed implementation of the
//     Blelloch–Peng–Tangwongsan algorithm [9] (Algorithm 3). Sets are
//     bucketed by ⌊log_{1+ε} D(s)⌋ where D(s) is the number of
//     uncovered elements the set still covers; buckets are processed in
//     decreasing order, and each round runs one step of MaNIS (maximal
//     nearly-independent set) fused into the bucket loop. O(M) expected
//     work where M is the sum of set sizes.
//
//   - ApproxPBBS: the PBBS-benchmark-style implementation of the same
//     algorithm [10], which is *not* work-efficient: instead of
//     rebucketing sets that were not chosen it carries them from step
//     to step, re-inspecting them every round (§5: "it carries them
//     over to the next step").
//
//   - Greedy: the exact sequential greedy algorithm (H_n
//     approximation) with a lazy bucket queue, the correctness oracle.
//
// Instances are bipartite graphs where vertices [0, Sets) are sets,
// the remaining vertices are elements, and directed edges run from a
// set to each element it covers.
package setcover

import (
	"context"
	"fmt"
	"math"

	"julienne/internal/bucket"
	"julienne/internal/graph"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// inCover is the D-value marking a set as chosen (the paper's D[s] = ∞,
// Algorithm 3 line 15).
const inCover = math.MaxUint32

// elmFree marks an element not yet reserved by any set (El[e] = ∞).
const elmFree = math.MaxUint32

// Options configures the approximation algorithms.
type Options struct {
	// Epsilon is the bucketing granularity; the approximation factor is
	// (1+ε)·H_n. The paper's experiments use 0.01 (the default).
	Epsilon float64
	// Buckets is passed through to the bucket structure (Approx and
	// ApproxWeighted; ApproxPBBS has none).
	Buckets bucket.Options
	// Recorder, when non-nil, receives one RoundMetrics per MaNIS
	// round plus bucket and edgeMap counters (Approx and
	// ApproxWeighted). Nil disables telemetry with only nil-check
	// overhead.
	Recorder *obs.Recorder
	// Ctx, when non-nil, is checked once per MaNIS round (Approx and
	// ApproxWeighted); if it is done the run stops and Result.Err
	// reports a *obs.Canceled with partial progress. Nil keeps today's
	// zero-overhead behavior.
	Ctx context.Context

	// There is deliberately no bucket-fusion knob here (compare
	// sssp.Options.Fusion): the greedy guarantee depends on processing
	// degree buckets in exact decreasing order, and sets not chosen by
	// a MaNIS step rebucket *downward* — fusing rounds would let a set
	// win with fewer uncovered elements than the bucket it was drained
	// from claims, voiding the (1+ε)·H_n approximation bound.
}

func (o Options) epsilon() float64 {
	if o.Epsilon <= 0 {
		return 0.01
	}
	return o.Epsilon
}

// Result carries the chosen cover plus harness measurements.
type Result struct {
	// InCover[s] reports whether set s was chosen (indexed over set
	// vertices only).
	InCover []bool
	// CoverSize is the number of chosen sets.
	CoverSize int
	// Rounds is the number of MaNIS/bucket rounds.
	Rounds int64
	// SetsInspected counts set-vertex inspections across rounds; the
	// work-efficiency comparison between Approx and ApproxPBBS reads
	// this (the PBBS version re-inspects carried sets every round).
	SetsInspected int64
	// BucketStats is the bucket-structure traffic (Approx and
	// ApproxWeighted).
	BucketStats bucket.Stats
	// Err is nil on a completed run, or a *obs.Canceled (wrapping
	// obs.ErrCanceled) if the run was stopped by Options.Ctx. A
	// partial InCover is a valid partial cover but not a
	// (1+ε)·H_n-approximate one.
	Err error
}

// bucketizer precomputes the ⌊log_{1+ε} d⌋ mapping. Degrees are small
// integers, so a table lookup keeps the mapping exact and fast.
type bucketizer struct {
	invLog float64
}

func newBucketizer(eps float64) bucketizer {
	return bucketizer{invLog: 1.0 / math.Log1p(eps)}
}

// bucketOf returns the bucket id for a set with d uncovered elements;
// Nil for exhausted (d == 0) or chosen (d == inCover) sets.
func (bz bucketizer) bucketOf(d uint32) bucket.ID {
	switch d {
	case 0, inCover:
		return bucket.Nil
	case 1:
		return 0
	}
	return bucket.ID(math.Log(float64(d)) * bz.invLog)
}

// ceilPow returns ⌈(1+ε)^k⌉ for (possibly negative) k, the degree and
// win thresholds of Algorithm 3 (lines 8 and 13).
func ceilPow(eps float64, k int64) uint32 {
	if k < 0 {
		return 1
	}
	v := math.Pow(1+eps, float64(k))
	return uint32(math.Ceil(v))
}

// Validate checks that the chosen sets cover every coverable element of
// the original (unpacked) instance. It returns nil on a valid cover.
func Validate(g graph.Graph, numSets int, inCoverFlags []bool) error {
	if len(inCoverFlags) != numSets {
		return fmt.Errorf("setcover: flag slice has length %d, want %d", len(inCoverFlags), numSets)
	}
	n := g.NumVertices()
	covered := make([]bool, n)
	for s := 0; s < numSets; s++ {
		if !inCoverFlags[s] {
			continue
		}
		g.OutNeighbors(graph.Vertex(s), func(e graph.Vertex, w graph.Weight) bool {
			covered[e] = true
			return true
		})
	}
	coverable := make([]bool, n)
	for s := 0; s < numSets; s++ {
		g.OutNeighbors(graph.Vertex(s), func(e graph.Vertex, w graph.Weight) bool {
			coverable[e] = true
			return true
		})
	}
	for e := numSets; e < n; e++ {
		if coverable[e] && !covered[e] {
			return fmt.Errorf("setcover: element %d is coverable but uncovered", e)
		}
	}
	return nil
}

// CoverList returns the chosen set ids in increasing order.
func CoverList(inCoverFlags []bool) []graph.Vertex {
	return parallel.PackIndices(len(inCoverFlags), func(i int) bool { return inCoverFlags[i] })
}
