// Package bucket implements Julienne's core contribution: a
// work-efficient structure maintaining a dynamic mapping from integer
// identifiers to ordered buckets, with fast access to the inverse map
// (§3 of the paper). Bucketing-based algorithms (k-core, ∆-stepping,
// wBFS, approximate set cover) repeatedly extract the lowest (or
// highest) non-empty bucket and move identifiers between buckets.
//
// Two implementations are provided:
//
//   - Parallel (the default, §3.2–3.3): represents an open range of nB
//     buckets plus one overflow bucket, updates buckets with the
//     block-histogram strategy (blocks of M = 2048, per-block counts,
//     one scan, then direct scatter; a batch below the fork cut-off is
//     one count and one scatter on the caller), and compacts lazily. The two
//     alternatives §3.3 measures and rejects — a semisort-based update
//     and an internal identifier→bucket map — are recorded findings in
//     EXPERIMENTS.md, not code.
//
//   - Sequential (§3.2): exact dynamic arrays with lazy deletion, used
//     as the differential-testing oracle and the single-thread
//     baseline.
//
// Identifier liveness is defined by the user-supplied D function: a
// copy of identifier i stored in bucket b is live iff D(i) == b at
// extraction time. This is the paper's lazy-deletion contract — moving
// an identifier just inserts a new copy; stale copies are dropped when
// their bucket is compacted.
package bucket

import (
	"math"
	"sync/atomic"
)

// ID identifies a logical bucket. Buckets are traversed monotonically
// in the structure's Order.
type ID = uint32

// Nil is the nullbkt sentinel: "not in any bucket". A D function
// returns Nil for identifiers that should not be (re)inserted.
const Nil ID = math.MaxUint32

// Order is the traversal order over buckets.
type Order int

const (
	// Increasing processes buckets from lowest id upward (k-core,
	// ∆-stepping, wBFS).
	Increasing Order = iota
	// Decreasing processes buckets from highest id downward
	// (approximate set cover).
	Decreasing
)

// Dest is the opaque destination produced by GetBucket and consumed by
// UpdateBuckets (§3.1: "bucket_dest is an opaque type representing
// where an identifier is moving inside of the structure"). Its
// representation differs between implementations; user code must treat
// it as a black box apart from the None sentinel.
type Dest uint32

// None is the Dest meaning "no update required". UpdateBuckets skips
// identifiers whose destination is None, which is how requests that
// move an identifier to Nil (or perform no logical move) stay free
// (§3.4: such requests "are ignored by updateBuckets and do not incur
// any random reads or writes").
const None Dest = Dest(math.MaxUint32)

// Structure is the bucketing interface of §3.1. Both the parallel and
// the sequential implementations satisfy it, which lets every
// application and test run against either.
type Structure interface {
	// NextBucket returns the id of the next non-empty bucket in the
	// traversal order together with the identifiers it contains. The
	// returned slice is valid only until the next NextBucket call or
	// the return of the next UpdateBuckets (whose f may still read it):
	// implementations reuse its backing storage across rounds (the
	// parallel structure compacts into a per-structure arena buffer),
	// so callers that need the identifiers beyond the current round
	// must copy them out. A julienne_debug build enforces this: at that
	// point it overwrites the stale slice with Nil and drops its
	// storage from the arena, so a late read indexes out of range
	// instead of seeing another round's identifiers. When the structure
	// is exhausted it returns (Nil, nil). The same bucket id may be returned more than once if
	// identifiers are inserted back into the current bucket between
	// calls.
	NextBucket() (ID, []uint32)
	// GetBucket computes the destination for an identifier moving
	// from bucket prev to bucket next, or None if no physical update
	// is needed (next == Nil, next == prev, or next strictly behind
	// the traversal, which lazy deletion handles for free).
	GetBucket(prev, next ID) Dest
	// UpdateBuckets applies k updates; the j'th update is given by
	// f(j). Updates whose Dest is None are skipped. f must be pure:
	// the parallel implementation evaluates it in parallel and more
	// than once per index (count pass and scatter pass). In
	// practice callers index into materialized (identifier, dest)
	// arrays, e.g. the output of a tagged edge map.
	UpdateBuckets(k int, f func(j int) (uint32, Dest))
	// Stats returns cumulative operation counts, used by the
	// microbenchmark (§3.4) and the work-efficiency experiments.
	Stats() Stats
}

// Stats counts the structure's work, matching the §3.4 throughput
// definition: throughput counts identifiers extracted by NextBucket
// plus identifiers physically moved by UpdateBuckets (moves to Nil are
// excluded — they are the skipped None destinations).
//
// Stats is a plain snapshot: both implementations keep the live
// counters as typed atomics, so Stats may be called concurrently with
// structure operations (e.g. by a telemetry poller) without data races.
type Stats struct {
	// Extracted is the total number of identifiers returned by
	// NextBucket.
	Extracted int64
	// Moved is the total number of identifiers physically inserted by
	// UpdateBuckets.
	Moved int64
	// Skipped is the number of None-destination updates (free).
	Skipped int64
	// BucketsReturned is the number of successful NextBucket calls.
	BucketsReturned int64
	// RangeAdvances counts overflow unpacks (parallel implementation
	// only).
	RangeAdvances int64
}

// Throughput returns Extracted + Moved, the §3.4 numerator.
func (s Stats) Throughput() int64 { return s.Extracted + s.Moved }

// counters is the live form of Stats that Par and Seq update.
type counters struct {
	extracted, moved, skipped, returned, rangeAdvances atomic.Int64
}

// snapshot builds the public plain Stats from the live counters.
func (c *counters) snapshot() Stats {
	return Stats{
		Extracted:       c.extracted.Load(),
		Moved:           c.moved.Load(),
		Skipped:         c.skipped.Load(),
		BucketsReturned: c.returned.Load(),
		RangeAdvances:   c.rangeAdvances.Load(),
	}
}

// Sub returns the component-wise difference s - prev: the traffic that
// happened between two snapshots. Per-round observers use it to turn
// cumulative counters into per-round deltas.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Extracted:       s.Extracted - prev.Extracted,
		Moved:           s.Moved - prev.Moved,
		Skipped:         s.Skipped - prev.Skipped,
		BucketsReturned: s.BucketsReturned - prev.BucketsReturned,
		RangeAdvances:   s.RangeAdvances - prev.RangeAdvances,
	}
}
