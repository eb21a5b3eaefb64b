package bucket

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"julienne/internal/chaos"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// DefaultOpenBuckets is the default size of the open bucket range
// (§3.3: "our default value is 128").
const DefaultOpenBuckets = 128

// updateBlock is the block length M of the block-histogram update
// (§3.3: "we set M to 2048 in our implementation").
const updateBlock = 2048

// Options configures the parallel bucket structure.
type Options struct {
	// OpenBuckets is nB, the number of logical buckets represented
	// exactly; identifiers logically beyond the open range live in a
	// single overflow bucket until the range advances (§3.3). Zero
	// means DefaultOpenBuckets.
	OpenBuckets int
	// Recorder, when non-nil, receives bucket-traffic counters
	// (obs.CtrBucket*) as the structure operates. Construction-time
	// bulk inserts are excluded, mirroring Stats. Nil disables
	// reporting at the cost of a nil check per operation.
	Recorder *obs.Recorder
}

// Par is the parallel bucketing implementation (§3.2 with the §3.3
// optimizations). It maintains nB open buckets covering the logical id
// range [rangeLo, rangeLo+nB) (Increasing) or (rangeHi-nB, rangeHi]
// (Decreasing), plus one overflow bucket for identifiers logically
// beyond the open range and one lazy bucket that receives identifiers
// landing inside the active fused span (DESIGN.md §11). Dest values
// encode a physical slot: open slot index in [0, nB), the overflow
// slot nB, the lazy slot nB+1 (only while a fused span is active), or
// None.
type Par struct {
	n     int
	d     func(uint32) ID
	order Order
	nB    int

	bkts    []chunkedBucket // nB open slots + overflow slot + lazy slot
	cur     int             // current open slot being processed
	rangeLo ID              // lowest logical id in the open range
	rangeHi ID              // highest logical id in the open range
	done    bool
	ctr     counters
	rec     *obs.Recorder

	// span is the active fused span set by NextBucketFused and cleared
	// by the next extraction call: while active, GetBucket routes
	// destinations inside [span.lo, span.hi] to the lazy slot, and
	// DrainLazy hands them back to the caller within the same round.
	span fusedSpan
	// lazyPred is the compaction predicate for DrainLazy (live iff D
	// still falls inside the active span), cached like livePred so the
	// per-drain filter does not allocate a closure.
	lazyPred func(uint32) bool

	// scr is the scratch arena reused across rounds; see the arena type
	// for the ownership rules.
	scr    arena
	freeMu sync.Mutex

	// livePred is the compaction predicate for NextBucket, cached so the
	// per-round filter does not allocate a closure; it tests D(id)
	// against liveCur.
	livePred func(uint32) bool
	liveCur  ID

	// The histogram-update passes are cached closures reading their
	// per-call parameters from upd: a closure literal evaluated inside
	// UpdateBuckets would be heap-allocated on every call (it escapes
	// into parallel.For's goroutines), defeating the allocation-free
	// steady state. Creating them once in New makes each UpdateBuckets
	// call closure-free.
	upd         updState
	zeroPass    func(i int)
	histPass    func(blk int)
	resizePass  func(s int)
	scatterPass func(blk int)

	// dbg holds invariant-assertion state; zero-sized unless the build
	// is tagged julienne_debug (see debug_on.go / debug_off.go).
	dbg debugState
}

// chunkedBucket stores one physical slot as a list of immutable
// chunks, one per UpdateBuckets call that moved identifiers into it.
// Appending a chunk never copies or over-allocates: inserting k
// identifiers costs exactly k words of allocator traffic (recycled
// through the free list when possible), where a single growable array
// would pay a geometric-reallocation factor of several times the data
// on every hot bucket. NextBucket compacts the chunks into one
// contiguous arena buffer when the slot is visited, recycling them.
type chunkedBucket struct {
	chunks [][]uint32
	n      int // total identifiers across chunks, stale copies included
}

// arena is Par's reusable per-round scratch. Buffers here are owned by
// the structure and recycled across NextBucket/UpdateBuckets calls, so
// a peeling loop reaches a steady state with zero allocations per round
// (the work-efficiency contract of §3: per-round cost proportional to
// identifiers processed, with no hidden allocator traffic). None of
// these buffers may be retained by callers beyond the windows the API
// documents — in particular the slice returned by NextBucket aliases
// live and is overwritten by the next NextBucket call.
type arena struct {
	counts []uint32   // slot-major block histograms (UpdateBuckets)
	starts []uint32   // per-slot incoming offsets (UpdateBuckets)
	chunks [][]uint32 // per-slot chunk of the current UpdateBuckets call
	live   []uint32   // compacted survivors returned by NextBucket
	// free holds spent identifier chunks (compacted or redistributed
	// slots) for chunkAlloc to reuse, protected by freeMu and
	// segregated by capacity class: free[c] holds arrays with cap in
	// [2^c, 2^(c+1)), so put and get are O(1) instead of a linear scan
	// over the whole pool.
	free      [33][][]uint32
	freeCount int
}

// maxFreeArrays bounds the recycling list; beyond it the smallest
// arrays are dropped for the garbage collector (the largest are the
// ones that can satisfy future chunkAlloc calls).
const maxFreeArrays = 1024

// slotChunkCap is the chunk-list capacity pre-seeded per slot at
// construction, sized so typical peels never grow a header array.
const slotChunkCap = 4

// updState holds one UpdateBuckets call's parameters for the cached
// pass closures. f is cleared after the call so the structure does not
// pin the caller's update function between rounds.
type updState struct {
	k, nb  int
	f      func(j int) (uint32, Dest)
	counts []uint32
	starts []uint32
	chunks [][]uint32
}

// fusedSpan is the logical id interval [lo, hi] covered by the most
// recent NextBucketFused call, normalized so lo <= hi regardless of
// traversal order. The zero value (inactive) contains nothing.
type fusedSpan struct {
	lo, hi ID
	active bool
}

// newFusedSpan is the active span of a fused run from first through
// last in traversal order.
func newFusedSpan(order Order, first, last ID) fusedSpan {
	if order == Decreasing {
		first, last = last, first
	}
	return fusedSpan{lo: first, hi: last, active: true}
}

// contains reports whether a logical bucket id falls inside the active
// span. Nil is never contained: hi is at most rangeHi < Nil.
func (s fusedSpan) contains(id ID) bool {
	return s.active && id >= s.lo && id <= s.hi
}

var _ Structure = (*Par)(nil)

// New creates the parallel structure over identifiers [0, n) with
// initial buckets given by d (Nil means "not bucketed"), traversed in
// the given order. d is retained and re-evaluated lazily, so it must
// reflect the algorithm's current identifier-to-bucket mapping at all
// times.
func New(n int, d func(uint32) ID, order Order, opt Options) *Par {
	nB := opt.OpenBuckets
	if nB <= 0 {
		nB = DefaultOpenBuckets
	}
	b := &Par{n: n, d: d, order: order, nB: nB}
	b.bkts = make([]chunkedBucket, nB+2)
	// Seed every slot's chunk list with capacity carved from one shared
	// backing array: the first insert into a virgin slot would otherwise
	// allocate a header array, costing one allocation per round in
	// forward-marching peels. Slots holding more than slotChunkCap
	// chunks fall back to ordinary (amortized) append growth.
	hdrs := make([][]uint32, (nB+2)*slotChunkCap)
	for i := range b.bkts {
		b.bkts[i].chunks = hdrs[i*slotChunkCap : i*slotChunkCap : (i+1)*slotChunkCap]
	}
	// Built once so the per-round compaction filter does not allocate a
	// closure; NextBucket points liveCur at the slot being compacted.
	b.livePred = func(id uint32) bool { return b.d(id) == b.liveCur }
	// Likewise for the DrainLazy filter: an identifier in the lazy slot
	// is live while its bucket still falls inside the active span.
	b.lazyPred = func(id uint32) bool { return b.span.contains(b.d(id)) }
	// The histogram-update passes, likewise built once (see the Par
	// fields for why). Each reads its parameters from b.upd.
	b.zeroPass = func(i int) { b.upd.counts[i] = 0 }
	b.histPass = func(blk int) {
		u := &b.upd
		lo, hi := blk*updateBlock, min((blk+1)*updateBlock, u.k)
		for j := lo; j < hi; j++ {
			if _, dest := u.f(j); dest != None {
				u.counts[int(dest)*u.nb+blk]++
			}
		}
	}
	b.resizePass = func(s int) {
		u := &b.upd
		incoming := int(u.starts[s+1] - u.starts[s])
		if incoming == 0 {
			return
		}
		c := b.chunkAlloc(incoming)
		u.chunks[s] = c
		bk := &b.bkts[s]
		bk.chunks = append(bk.chunks, c)
		bk.n += incoming
	}
	b.scatterPass = func(blk int) {
		u := &b.upd
		lo, hi := blk*updateBlock, min((blk+1)*updateBlock, u.k)
		for j := lo; j < hi; j++ {
			id, dest := u.f(j)
			if dest == None {
				continue
			}
			s := int(dest)
			off := u.counts[s*u.nb+blk]
			u.counts[s*u.nb+blk] = off + 1
			u.chunks[s][int(off-u.starts[s])] = id
		}
	}

	// Find the first/last non-empty logical bucket in parallel (§3.2:
	// "calculating the number of initial buckets in parallel using
	// reduce") and anchor the open range there.
	var anchor ID
	if order == Increasing {
		anchor = parallel.Reduce(n, 0, Nil,
			func(i int) ID { return d(uint32(i)) },
			func(a, c ID) ID {
				if a == Nil {
					return c
				}
				if c == Nil {
					return a
				}
				return min(a, c)
			})
	} else {
		anchor = parallel.Reduce(n, 0, Nil,
			func(i int) ID { return d(uint32(i)) },
			func(a, c ID) ID {
				if a == Nil {
					return c
				}
				if c == Nil {
					return a
				}
				return max(a, c)
			})
	}
	if anchor == Nil {
		b.done = true
		return b
	}
	b.setRange(anchor)

	// Bulk-insert the initial identifiers through the same machinery
	// updates use (§3.2: "inserting identifiers into B can be done by
	// then calling updateBuckets(D, n)"). The bulk insert is
	// bookkeeping, not algorithmic movement: it bypasses the counting
	// wrapper, and the recorder is attached afterwards, so Stats and
	// the recorder see only post-construction traffic.
	b.update(n, func(j int) (uint32, Dest) {
		id := uint32(j)
		return id, b.GetBucket(Nil, d(id))
	})
	b.rec = opt.Recorder
	return b
}

// setRange positions the open range so that `first` is the first
// logical bucket the traversal will visit.
func (b *Par) setRange(first ID) {
	if b.order == Increasing {
		b.rangeLo = first
		// Saturating high end; Nil is never a valid bucket id.
		if first >= Nil-ID(b.nB) {
			b.rangeHi = Nil - 1
		} else {
			b.rangeHi = first + ID(b.nB) - 1
		}
	} else {
		b.rangeHi = first
		if first < ID(b.nB) {
			b.rangeLo = 0
		} else {
			b.rangeLo = first - ID(b.nB) + 1
		}
	}
	b.cur = 0
}

// slotFor maps a logical bucket id inside the open range to its
// physical slot index (0 is the first slot the traversal visits).
func (b *Par) slotFor(id ID) int {
	if b.order == Increasing {
		return int(id - b.rangeLo)
	}
	return int(b.rangeHi - id)
}

// logical returns the logical bucket id of an open slot.
func (b *Par) logical(slot int) ID {
	if b.order == Increasing {
		return b.rangeLo + ID(slot)
	}
	return b.rangeHi - ID(slot)
}

// inRange reports whether a logical id falls inside the open range.
func (b *Par) inRange(id ID) bool {
	return id != Nil && id >= b.rangeLo && id <= b.rangeHi
}

// behind reports whether logical id `id` is strictly behind the
// traversal position (it will never be visited again).
func (b *Par) behind(id ID) bool {
	cur := b.logical(b.cur)
	if b.order == Increasing {
		return id < cur
	}
	return id > cur
}

// beyond reports whether logical id `id` is past the open range in
// traversal direction (i.e. belongs in the overflow bucket).
func (b *Par) beyond(id ID) bool {
	if id == Nil {
		return false
	}
	if b.order == Increasing {
		return id > b.rangeHi
	}
	return id < b.rangeLo
}

// GetBucket implements Structure (§3.1, with the §3.3 open-range rule:
// "we only move an identifier that is logically moving from its current
// bucket to a new bucket if its new bucket is in the current range, or
// if it is not yet in any bucket").
func (b *Par) GetBucket(prev, next ID) Dest {
	if next == Nil || b.done {
		return None
	}
	// Lazy insertion (DESIGN.md §11): destinations inside the active
	// fused span route to the lazy slot so the caller can process them
	// in the same round via DrainLazy instead of round-tripping through
	// bucket storage. This check precedes the next == prev fast path
	// deliberately — a fused frontier's physical copies were consumed by
	// extraction, so even a same-bucket reinsertion needs a lazy copy.
	if b.span.contains(next) {
		return Dest(b.nB + 1)
	}
	if next == prev {
		return None
	}
	if b.inRange(next) {
		if b.behind(next) {
			return None
		}
		return Dest(b.slotFor(next))
	}
	if b.beyond(next) {
		// Move into overflow only if the identifier is not already
		// there: fresh identifiers (prev == Nil) and identifiers
		// currently in the open range must move; identifiers already
		// beyond the range stay put for free.
		if prev == Nil || !b.beyond(prev) {
			return Dest(b.nB)
		}
		return None
	}
	// next is behind the whole open range: it will never be visited;
	// lazy deletion makes this free.
	return None
}

// NextBucket implements Structure. It compacts the current slot with a
// parallel filter (§3.2), advances through the open range, and when the
// range is exhausted redistributes the overflow bucket into a new range
// anchored at the nearest remaining bucket (§3.3's range advance; we
// jump directly to the next non-empty bucket rather than walking empty
// ranges, which only reduces the O(T) term of Lemma 3.2).
//
// The returned slice is backed by an arena buffer owned by the
// structure: it is valid only until the next extraction call, which
// overwrites it (see Structure for the exact lifetime and what a
// julienne_debug build does to a stale slice). Callers that need the
// identifiers afterwards must copy them out. All the peeling loops in
// this repository consume the slice within the round, so the steady
// state allocates nothing.
func (b *Par) NextBucket() (ID, []uint32) {
	id, _, live := b.extract(false, 0, 0)
	return id, live
}

// NextBucketFused implements Structure (see the interface for the
// caller contract and DESIGN.md §11 for the safety argument). The
// fusion rule is deterministic and deliberately identical between Par
// and Seq so the differential suite can compare them in lockstep: the
// first non-empty bucket is always included whole; each subsequent
// non-empty bucket joins the run iff the combined compacted frontier
// stays within maxFrontier identifiers and the covered logical span
// stays within maxSpan bucket ids. A rejected bucket is written back
// to storage as a single compacted chunk, and the traversal resumes
// just after the last fused bucket, so the next extraction revisits
// everything behind the rejection point that this round refills.
//
// Only the first bucket of a run may trigger a range advance; the run
// itself never crosses the open-range boundary (see Structure).
func (b *Par) NextBucketFused(maxFrontier, maxSpan int) (ID, ID, []uint32) {
	return b.extract(true, maxFrontier, maxSpan)
}

// extract is the one extraction walk behind NextBucket (fuse false: one
// bucket, no span, the cursor stays on it so same-bucket reinsertions
// are revisited) and NextBucketFused.
func (b *Par) extract(fuse bool, maxFrontier, maxSpan int) (first, last ID, live []uint32) {
	b.debugPoisonArena()
	if b.done {
		return Nil, Nil, nil
	}
	// Clock is zero (and ObserveSince a no-op) on a nil recorder, so
	// the disabled path pays one nil check and an open-coded defer.
	start := b.rec.Clock()
	defer b.rec.ObserveSince(obs.HistNextBucketNs, start)
	if chaos.Enabled {
		chaos.Point(chaos.SiteRound)
	}
	b.closeSpan()
	b.debugCheckStructure()
	b.scr.live = b.scr.live[:0]
	first, ok := b.nextCompacted()
	if !ok {
		return Nil, Nil, nil
	}
	last = first
	if fuse {
		run := 1
		// The first bucket is always returned whole, so maxFrontier < 1
		// behaves as 1. A non-empty candidate adds at least one
		// identifier, so once the frontier holds maxFrontier identifiers
		// no candidate can be accepted — stop probing. Probing is
		// restricted to the open range: crossing into the overflow bucket
		// would redistribute it before this round's insertions exist,
		// stranding updates that land between the run and the new range
		// (and, on an empty overflow, marking a structure done that is
		// about to receive insertions).
		for len(b.scr.live) < maxFrontier {
			base := len(b.scr.live)
			id, ok := b.nextCompactedInRange()
			if !ok {
				break
			}
			if len(b.scr.live) > maxFrontier || (maxSpan >= 1 && b.spanWidth(first, id) > maxSpan) {
				b.unconsume(id, base)
				break
			}
			last = id
			run++
		}
		// The walk passed over empty buckets (probed slots, or the
		// stretch up to a rejected candidate) that this round's
		// relaxations may yet land in. Rewind the cursor to just after the
		// last fused bucket so those insertions stay ahead of the
		// traversal instead of being dropped as behind it.
		b.cur = b.slotFor(last) + 1
		b.rec.Add(obs.CtrBucketRoundsSaved, int64(run-1))
		b.rec.Observe(obs.HistFusedRunLen, int64(run))
		b.span = newFusedSpan(b.order, first, last)
	}
	live = b.scr.live
	b.ctr.extracted.Add(int64(len(live)))
	b.ctr.returned.Add(1)
	b.rec.Add(obs.CtrBucketExtracted, int64(len(live)))
	b.rec.Inc(obs.CtrBucketReturned)
	b.debugCheckExtract(first, last, live)
	return first, last, live
}

// DrainLazy implements Structure: it compacts the lazy slot —
// identifiers GetBucket routed into the active fused span since the
// last extraction or drain — into the arena and empties it. Stale
// copies (identifiers whose D moved on after insertion) are dropped by
// the same liveness rule NextBucket compaction applies.
func (b *Par) DrainLazy() []uint32 {
	b.debugPoisonArena()
	if !b.span.active {
		return nil
	}
	lz := &b.bkts[b.nB+1]
	if lz.n == 0 {
		return nil
	}
	live := b.scr.live[:0]
	for _, c := range lz.chunks {
		live = parallel.FilterAppend(live, c, b.lazyPred)
		b.freePut(c)
	}
	b.scr.live = live
	b.resetSlot(lz)
	if len(live) == 0 {
		return nil
	}
	b.ctr.extracted.Add(int64(len(live)))
	b.rec.Add(obs.CtrBucketExtracted, int64(len(live)))
	b.rec.Add(obs.CtrBucketLazyDrained, int64(len(live)))
	b.debugCheckLazyDrain(live)
	return live
}

// closeSpan deactivates the fused span at the next extraction call.
// Identifiers still pending in the lazy slot at that point were never
// handed back by DrainLazy and are dropped — a conforming caller
// drains the span until empty before extracting again, so this is a
// caller bug and a julienne_debug build panics; a release build
// recycles the chunks and moves on (the traversal has passed the span,
// so the copies are as dead as identifiers moved to Nil).
func (b *Par) closeSpan() {
	if !b.span.active {
		return
	}
	lz := &b.bkts[b.nB+1]
	b.debugCheckSpanClosed(lz.n)
	if lz.n > 0 {
		for _, c := range lz.chunks {
			b.freePut(c)
		}
		b.resetSlot(lz)
	}
	b.span = fusedSpan{}
}

// spanWidth is the number of logical bucket ids a fused run from
// `first` through `id` covers, inclusive, in traversal order.
func (b *Par) spanWidth(first, id ID) int {
	if b.order == Increasing {
		return int(id-first) + 1
	}
	return int(first-id) + 1
}

// unconsume returns a bucket the fusion walk compacted but rejected
// (accepting it would overflow maxFrontier or maxSpan) to storage as a
// single compacted chunk and rewinds the traversal cursor to it. base
// is the scr.live offset where the rejected bucket's identifiers
// start.
func (b *Par) unconsume(id ID, base int) {
	live := b.scr.live[base:]
	c := b.chunkAlloc(len(live))
	copy(c, live)
	bk := &b.bkts[b.slotFor(id)]
	bk.chunks = append(bk.chunks, c)
	bk.n += len(c)
	b.cur = b.slotFor(id)
	b.scr.live = b.scr.live[:base]
}

// nextCompactedInRange advances the traversal to the next non-empty
// bucket of the current open range, compacts its live identifiers onto
// the end of b.scr.live (recycling the spent chunks through the free
// list), and returns its logical id. It never touches the overflow
// bucket or the done flag: (Nil, false) only means the open range is
// exhausted. The fusion walk uses it for every bucket after the first,
// so fused runs deliberately end at the range boundary (see
// extract).
func (b *Par) nextCompactedInRange() (ID, bool) {
	for b.cur <= b.nB-1 {
		slot := b.cur
		bk := &b.bkts[slot]
		if bk.n == 0 {
			b.cur++
			continue
		}
		cur := b.logical(slot)
		b.liveCur = cur
		base := len(b.scr.live)
		live := b.scr.live
		for _, c := range bk.chunks {
			live = parallel.FilterAppend(live, c, b.livePred)
			b.freePut(c)
		}
		b.scr.live = live
		b.resetSlot(bk)
		if len(live) == base {
			b.cur++
			continue
		}
		return cur, true
	}
	return Nil, false
}

// nextCompacted is nextCompactedInRange extended with §3.3's range
// advance: when the open range is exhausted it redistributes the
// overflow bucket and keeps walking; (Nil, false) means the structure
// is exhausted and done is set. Extraction stats and debug bookkeeping
// are left to the caller, which may be fusing several buckets into one
// frontier.
func (b *Par) nextCompacted() (ID, bool) {
	for {
		if cur, ok := b.nextCompactedInRange(); ok {
			return cur, true
		}
		// Open range exhausted: redistribute overflow, if any. The
		// chunks are flattened (through the free list) so the anchor
		// reduce and the reinsert below index one contiguous array.
		obk := &b.bkts[b.nB]
		if obk.n == 0 {
			b.done = true
			return Nil, false
		}
		over := b.chunkAlloc(obk.n)
		off := 0
		for _, c := range obk.chunks {
			copy(over[off:], c)
			off += len(c)
			b.freePut(c)
		}
		b.resetSlot(obk)
		// The next range is anchored at the nearest live bucket among
		// overflow identifiers.
		var anchor ID
		if b.order == Increasing {
			anchor = parallel.Reduce(len(over), 0, Nil,
				func(j int) ID {
					id := b.d(over[j])
					if id == Nil || id <= b.rangeHi {
						return Nil // stale copy: extracted or moved back
					}
					return id
				},
				func(a, c ID) ID {
					if a == Nil {
						return c
					}
					if c == Nil {
						return a
					}
					return min(a, c)
				})
		} else {
			anchor = parallel.Reduce(len(over), 0, Nil,
				func(j int) ID {
					id := b.d(over[j])
					if id == Nil || id >= b.rangeLo {
						return Nil
					}
					return id
				},
				func(a, c ID) ID {
					if a == Nil {
						return c
					}
					if c == Nil {
						return a
					}
					return max(a, c)
				})
		}
		if anchor == Nil {
			b.done = true
			return Nil, false
		}
		prevLo, prevHi := b.rangeLo, b.rangeHi
		b.setRange(anchor)
		b.ctr.rangeAdvances.Add(1)
		b.rec.Inc(obs.CtrBucketRangeAdvances)
		// Reinsert live overflow identifiers under the new range. An
		// identifier is stale if its current logical bucket falls in
		// (or behind) the previous range — it was moved or extracted.
		b.UpdateBuckets(len(over), func(j int) (uint32, Dest) {
			id := over[j]
			next := b.d(id)
			if next == Nil {
				return id, None
			}
			if b.order == Increasing && next <= prevHi {
				return id, None
			}
			if b.order == Decreasing && next >= prevLo {
				return id, None
			}
			return id, b.GetBucket(Nil, next)
		})
		b.freePut(over)
	}
}

// UpdateBuckets implements Structure using the block-histogram strategy
// of §3.3: the k updates are split into blocks of M = 2048; each block
// counts its identifiers per destination slot; one scan over the
// slot-major count matrix yields exact write offsets; a second pass
// scatters identifiers directly into a fresh exact-size chunk per
// destination bucket.
func (b *Par) UpdateBuckets(k int, f func(j int) (uint32, Dest)) {
	if k <= 0 || b.done {
		b.debugPoisonArena()
		return
	}
	start := b.rec.Clock()
	defer b.rec.ObserveSince(obs.HistUpdateBucketsNs, start)
	moved := b.update(k, f)
	// Every request either moved or had Dest None.
	skipped := int64(k) - moved
	b.ctr.moved.Add(moved)
	b.ctr.skipped.Add(skipped)
	b.rec.Add(obs.CtrBucketMoved, moved)
	b.rec.Add(obs.CtrBucketSkipped, skipped)
	b.debugCheckUpdateTotals(k, moved, skipped)
	// Only now: f may have been reading the extracted identifiers.
	b.debugPoisonArena()
}

// update is UpdateBuckets without the accounting: it applies the k > 0
// updates and returns how many identifiers it moved.
func (b *Par) update(k int, f func(j int) (uint32, Dest)) int64 {
	// The block histograms and scatter offsets are uint32; a batch of
	// 2^32 or more updates would silently wrap the offsets and scatter
	// identifiers into the wrong buckets. Fail loudly instead, mirroring
	// the DeltaStepping bucket-id guard.
	if uint64(k) > math.MaxUint32 {
		panic(fmt.Sprintf("bucket: UpdateBuckets batch of %d updates overflows the uint32 offset space; split the batch below 2^32 identifiers", k))
	}
	b.debugCheckUpdate(k, f)
	// nB open slots, the overflow slot, and the lazy slot (which only
	// receives identifiers while a fused span is active, but is always
	// accounted for so the pass layout does not depend on span state).
	nSlots := b.nB + 2
	nb := (k + updateBlock - 1) / updateBlock
	need := nSlots * nb
	if cap(b.scr.counts) < need {
		b.scr.counts = make([]uint32, need)
	}
	if cap(b.scr.starts) < nSlots+1 {
		b.scr.starts = make([]uint32, nSlots+1)
	}
	if cap(b.scr.chunks) < nSlots {
		b.scr.chunks = make([][]uint32, nSlots)
	}
	b.upd = updState{
		k: k, nb: nb, f: f,
		counts: b.scr.counts[:need],
		starts: b.scr.starts[:nSlots+1],
		chunks: b.scr.chunks[:nSlots],
	}
	counts, starts := b.upd.counts, b.upd.starts
	// A batch of one block has no parallelism to offer, whatever the slot
	// count (the same 130 for a 2-identifier batch as for a 2 M one): all
	// five passes then run inline on the caller — the two over blocks by
	// their own grain, the three over slots by one they cannot reach.
	zeroGrain, resizeGrain := parallel.DefaultGrain, 8
	if nb == 1 {
		zeroGrain, resizeGrain = need, nSlots
	}
	parallel.For(need, zeroGrain, b.zeroPass)

	// Pass 1: per-block histograms, laid out slot-major so that one
	// exclusive scan produces, for every (slot, block), the offset of
	// that block's contribution within the slot's incoming batch.
	parallel.For(nb, 1, b.histPass)
	var total uint32
	if nb == 1 {
		for s, c := range counts {
			counts[s], total = total, total+c
		}
	} else {
		total = parallel.Scan(counts, counts)
	}

	// Allocate each destination bucket's chunk once (§3.2: "in
	// parallel, resize all buckets that have identifiers moving to
	// them" — chunking makes the resize a fresh exact-size array
	// instead of a copying reallocation). The chunk table comes from
	// the arena; it needs no clearing because pass 2 only reads entries
	// for slots with incoming identifiers, which the pass above always
	// writes.
	for s := 0; s < nSlots; s++ {
		starts[s] = counts[s*nb]
	}
	starts[nSlots] = total
	parallel.For(nSlots, resizeGrain, b.resizePass)

	// Pass 2: scatter. Each block re-evaluates f and writes its
	// identifiers at block-exclusive offsets, so no synchronization is
	// needed within a slot.
	parallel.For(nb, 1, b.scatterPass)
	b.upd.f = nil
	return int64(total)
}

// Stats implements Structure; it is safe to call concurrently with
// NextBucket/UpdateBuckets.
func (b *Par) Stats() Stats { return b.ctr.snapshot() }

// CurrentRange reports the open range and traversal position; the tests
// use it to assert the §3.3 overflow behaviour.
func (b *Par) CurrentRange() (lo, hi ID, overflow int) {
	return b.rangeLo, b.rangeHi, b.bkts[b.nB].n
}

// resetSlot empties a slot whose chunks have all been handed to
// freePut, clearing the chunk pointers so the retained header array
// does not pin the recycled chunks against eviction from the free list.
func (b *Par) resetSlot(bk *chunkedBucket) {
	for i := range bk.chunks {
		bk.chunks[i] = nil
	}
	bk.chunks = bk.chunks[:0]
	bk.n = 0
}

// chunkAlloc returns a length-n array for an overflow chunk (or the
// redistribution flatten), preferring a recycled one. Chunks are sized
// exactly: they are written once and never appended to, so they need
// no growth slack.
func (b *Par) chunkAlloc(n int) []uint32 {
	if s := b.freeGet(n); s != nil {
		return s[:n]
	}
	return make([]uint32, n)
}

// freePut recycles a spent identifier array (an emptied bucket slot, a
// drained overflow batch, or an array displaced by grow) for later grow
// calls to reuse.
func (b *Par) freePut(s []uint32) {
	if cap(s) == 0 {
		return
	}
	cls := bits.Len(uint(cap(s))) - 1
	b.freeMu.Lock()
	defer b.freeMu.Unlock()
	if b.scr.freeCount >= maxFreeArrays {
		// Full: displace an array from the smallest nonempty class if
		// this one is strictly larger, so the pool converges on the
		// arrays most likely to satisfy future requests.
		low := -1
		for i := range b.scr.free {
			if len(b.scr.free[i]) > 0 {
				low = i
				break
			}
		}
		if low < 0 || low >= cls {
			return
		}
		l := b.scr.free[low]
		l[len(l)-1] = nil
		b.scr.free[low] = l[:len(l)-1]
		b.scr.freeCount--
	}
	b.scr.free[cls] = append(b.scr.free[cls], s[:0])
	b.scr.freeCount++
}

// freeGet returns a recycled array with capacity at least need, or nil.
// Approximate best fit: the first nonempty class at or above need's
// ceiling class wins, and classes more than 8x oversized are left for
// the large requests only they can serve.
func (b *Par) freeGet(need int) []uint32 {
	if need <= 0 {
		return nil
	}
	c0 := bits.Len(uint(need - 1))
	b.freeMu.Lock()
	defer b.freeMu.Unlock()
	// Class c0-1 straddles need: its arrays have cap in [2^(c0-1),
	// 2^c0), some of which suffice. Check the most recently freed few —
	// the common hit is a just-recycled array of nearly the same size
	// (e.g. successive overflow redistributions).
	if cls := c0 - 1; cls >= 0 {
		l := b.scr.free[cls]
		for i := len(l) - 1; i >= 0 && i >= len(l)-8; i-- {
			if cap(l[i]) >= need {
				s := l[i]
				l[i] = l[len(l)-1]
				l[len(l)-1] = nil
				b.scr.free[cls] = l[:len(l)-1]
				b.scr.freeCount--
				return s
			}
		}
	}
	for cls := c0; cls < len(b.scr.free) && cls <= c0+3; cls++ {
		if l := b.scr.free[cls]; len(l) > 0 {
			s := l[len(l)-1]
			l[len(l)-1] = nil
			b.scr.free[cls] = l[:len(l)-1]
			b.scr.freeCount--
			return s
		}
	}
	return nil
}
