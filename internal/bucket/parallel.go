package bucket

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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

// forks reports whether a pass over the given number of items merits a
// parallel region (parallel.WorkersFor's cut-off). It is the one place
// the structure makes that choice, for the anchor reduce, compaction
// and updates alike: a pass below the cut-off is a plain loop on the
// caller and opens no region at all, not even one the substrate would
// run inline and count, so a small round costs only the identifiers it
// moves and the slots it touches.
func forks(items int) bool { return parallel.WorkersFor(int64(items)) > 1 }

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
// beyond the open range. Dest values encode a physical slot: open slot
// index in [0, nB), the overflow slot nB, or None.
type Par struct {
	n     int
	d     func(uint32) ID
	order Order
	nB    int

	bkts    []chunkedBucket // nB open slots + overflow slot
	cur     int             // current open slot being processed
	rangeLo ID              // lowest logical id in the open range
	rangeHi ID              // highest logical id in the open range
	done    bool
	ctr     counters
	rec     *obs.Recorder

	// scr is the scratch arena reused across rounds; see the arena type
	// for the ownership rules.
	scr arena

	// The block passes are cached closures reading their per-call
	// parameters from upd and cmp: a closure literal evaluated inside
	// UpdateBuckets or a compaction would be heap-allocated on every call
	// (it escapes into parallel.For's goroutines), defeating the
	// allocation-free steady state. Creating them once in New makes each
	// call closure-free.
	upd         updState
	zeroPass    func(i int)
	histPass    func(blk int)
	scatterPass func(blk int)
	cmp         compactState
	compactPass func(blk int)
	adv         advanceState
	advAnchor   func(j int) ID
	advFeed     func(j int) (uint32, Dest)

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
	counts []uint32   // slot-major block histograms (forked UpdateBuckets)
	starts []uint32   // per-slot incoming offsets, or the slots a caller-side batch touches
	fill   []uint32   // per-slot counts of a caller-side batch, all zero between calls
	chunks [][]uint32 // per-slot chunk of the current UpdateBuckets call
	live   []uint32   // compacted survivors returned by NextBucket
	at     []int      // chunk offsets of a forked compaction
	kept   []int      // per-block survivor counts of a forked compaction
	// free holds spent identifier chunks (compacted or redistributed
	// slots) for chunkAlloc to reuse, by size class: free[c] holds
	// arrays of capacity 2^c, so put and get are O(1). Only the
	// structure's caller touches it (every pass that allocates or
	// recycles a chunk runs on the caller), so it needs no lock.
	free [33][][]uint32
}

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

// compactState holds one forked compaction's parameters for the cached
// compactPass: the slot's chunks read as one array of len(out)
// identifiers (chunk i starts at at[i]), split into blocks of size;
// block blk writes the identifiers whose bucket is still id to
// out[blk*size:] and their count to kept[blk].
type compactState struct {
	id       ID
	chunks   [][]uint32
	at, kept []int
	size     int
	out      []uint32
}

// advanceState holds one range advance's parameters for the cached
// advAnchor and advFeed: the flattened overflow identifiers and the
// range they were stored beyond.
type advanceState struct {
	over           []uint32
	prevLo, prevHi ID
}

var _ Structure = (*Par)(nil)

// New creates the parallel structure over identifiers [0, n) with
// initial buckets given by d (Nil means "not bucketed"), traversed in
// the given order. d is retained and re-evaluated lazily, so it must
// reflect the algorithm's current identifier-to-bucket mapping at all
// times.
func New(n int, d func(uint32) ID, order Order, opt Options) *Par {
	b := new(Par)
	b.fill(n, d, order, opt)
	return b
}

// fill is New's work on b, which may be a structure an earlier run
// drained (Loop.With): it keeps that run's slot table, arena, free list
// of chunks and block passes, and resets everything else.
func (b *Par) fill(n int, d func(uint32) ID, order Order, opt Options) {
	nB := opt.OpenBuckets
	if nB <= 0 {
		nB = DefaultOpenBuckets
	}
	b.n, b.d, b.order, b.nB = n, d, order, nB
	b.done, b.rec = false, nil
	b.ctr.reset()
	b.dbg = debugState{}
	if len(b.bkts) != nB+1 {
		b.bkts = make([]chunkedBucket, nB+1)
		b.scr.fill = make([]uint32, nB+1)
		b.scr.chunks = make([][]uint32, nB+1)
		// Seed every slot's chunk list with capacity carved from one
		// shared backing array: the first insert into a virgin slot
		// would otherwise allocate a header array, costing one
		// allocation per round in forward-marching peels. Slots holding
		// more than slotChunkCap chunks fall back to ordinary
		// (amortized) append growth.
		hdrs := make([][]uint32, (nB+1)*slotChunkCap)
		for i := range b.bkts {
			b.bkts[i].chunks = hdrs[i*slotChunkCap : i*slotChunkCap : (i+1)*slotChunkCap]
		}
	}
	if b.zeroPass == nil {
		b.buildPasses()
	}

	// Find the first/last non-empty logical bucket in parallel (§3.2:
	// "calculating the number of initial buckets in parallel using
	// reduce") and anchor the open range there.
	anchor := nearest(order, n, func(i int) ID { return d(uint32(i)) })
	if anchor == Nil {
		b.done = true
		return
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
}

// drain ends a borrowed structure's run (Loop.With): the chunks of
// every slot go to the free list, since a run that stopped early leaves
// identifiers behind, and nothing the run passed in stays referenced,
// so the next run's fill starts from empty slots.
func (b *Par) drain() {
	b.debugPoisonArena()
	for i := range b.bkts {
		b.recycle(&b.bkts[i])
	}
	clear(b.scr.fill)
	clear(b.scr.chunks)
	b.d, b.rec = nil, nil
	b.upd, b.cmp, b.adv = updState{}, compactState{}, advanceState{}
}

// buildPasses builds the block passes once per structure (see the Par
// fields for why). Each reads its parameters from b.upd or b.cmp.
func (b *Par) buildPasses() {
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
	b.compactPass = func(blk int) {
		c := &b.cmp
		lo, hi := min(blk*c.size, len(c.out)), min((blk+1)*c.size, len(c.out))
		// The chunk holding position lo: the last one starting at or
		// before it.
		i, found := slices.BinarySearch(c.at, lo)
		if !found {
			i--
		}
		out := c.out[lo:lo]
		for pos := lo; pos < hi; i++ {
			ch := c.chunks[i][pos-c.at[i] : min(len(c.chunks[i]), hi-c.at[i])]
			for _, id := range ch {
				if b.d(id) == c.id {
					out = append(out, id)
				}
			}
			pos += len(ch)
		}
		c.kept[blk] = len(out)
	}
	b.advAnchor = func(j int) ID {
		id := b.d(b.adv.over[j])
		if !b.beyond(id) {
			return Nil // stale copy: extracted or moved back
		}
		return id
	}
	// An overflow identifier is stale if its current logical bucket
	// falls in (or behind) the range it was stored beyond — it was
	// moved or extracted.
	b.advFeed = func(j int) (uint32, Dest) {
		a := &b.adv
		id := a.over[j]
		next := b.d(id)
		if next == Nil {
			return id, None
		}
		if b.order == Increasing && next <= a.prevHi {
			return id, None
		}
		if b.order == Decreasing && next >= a.prevLo {
			return id, None
		}
		return id, b.GetBucket(Nil, next)
	}
}

// nearest reduces the logical ids id(0), …, id(k-1) to the one a
// traversal in the given order reaches first, skipping Nil; it returns
// Nil when every id is Nil. Both combiners are plain functions, so the
// reduce allocates no closure for them.
func nearest(order Order, k int, id func(int) ID) ID {
	op := lowerID
	if order == Decreasing {
		op = higherID
	}
	if forks(k) {
		return parallel.Reduce(k, 0, Nil, id, op)
	}
	acc := Nil
	for i := 0; i < k; i++ {
		acc = op(acc, id(i))
	}
	return acc
}

// lowerID is min: Nil is the largest ID, so it never wins.
func lowerID(a, c ID) ID { return min(a, c) }

// higherID is max over the ids that are not Nil.
func higherID(a, c ID) ID {
	if a == Nil {
		return c
	}
	if c == Nil {
		return a
	}
	return max(a, c)
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
// filter (§3.2) in one pass over its chunks (compact), advances through
// the open range, and when the range is exhausted redistributes the
// overflow bucket into a new range anchored at the nearest remaining
// bucket (§3.3's range advance; we jump directly to the next non-empty
// bucket rather than walking empty ranges, which only reduces the O(T)
// term of Lemma 3.2). The cursor stays on the returned slot, so
// identifiers reinserted into the current bucket are revisited.
//
// The returned slice is backed by an arena buffer owned by the
// structure: it is valid only until the next extraction call, which
// overwrites it (see Structure for the exact lifetime and what a
// julienne_debug build does to a stale slice). Callers that need the
// identifiers afterwards must copy them out. All the peeling loops in
// this repository consume the slice within the round, so the steady
// state allocates nothing.
func (b *Par) NextBucket() (ID, []uint32) {
	b.debugPoisonArena()
	if b.done {
		return Nil, nil
	}
	// Clock is zero (and ObserveSince a no-op) on a nil recorder, so
	// the disabled path pays one nil check and an open-coded defer.
	start := b.rec.Clock()
	defer b.rec.ObserveSince(obs.HistNextBucketNs, start)
	if chaos.Enabled {
		chaos.Point(chaos.SiteRound)
	}
	b.debugCheckStructure()
	id, ok := b.nextCompacted()
	if !ok {
		return Nil, nil
	}
	live := b.scr.live
	b.ctr.extracted.Add(int64(len(live)))
	b.ctr.returned.Add(1)
	b.rec.Add(obs.CtrBucketExtracted, int64(len(live)))
	b.rec.Inc(obs.CtrBucketReturned)
	b.debugCheckExtract(id, live)
	return id, live
}

// nextCompacted advances the traversal to the next bucket with a live
// identifier, compacts its live identifiers into b.scr.live (recycling
// the spent chunks through the free list), and returns its logical id. When the
// open range is exhausted it redistributes the overflow bucket and
// keeps walking; (Nil, false) means the structure is exhausted and done
// is set.
func (b *Par) nextCompacted() (ID, bool) {
	for {
		for ; b.cur < b.nB; b.cur++ {
			bk := &b.bkts[b.cur]
			if bk.n == 0 {
				continue
			}
			cur := b.logical(b.cur)
			b.compact(bk, cur)
			if len(b.scr.live) > 0 {
				return cur, true
			}
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
			off += copy(over[off:], c)
		}
		b.recycle(obk)
		// The next range is anchored at the nearest live bucket among
		// overflow identifiers (advAnchor), and the live ones are
		// reinserted under it (advFeed).
		b.adv = advanceState{over: over, prevLo: b.rangeLo, prevHi: b.rangeHi}
		anchor := nearest(b.order, len(over), b.advAnchor)
		if anchor != Nil {
			b.setRange(anchor)
			b.ctr.rangeAdvances.Add(1)
			b.rec.Inc(obs.CtrBucketRangeAdvances)
			b.UpdateBuckets(len(over), b.advFeed)
		}
		b.adv = advanceState{}
		b.freePut(over)
		if anchor == Nil {
			b.done = true
			return Nil, false
		}
	}
}

// compact sets b.scr.live to the identifiers of slot bk whose bucket D
// is still id, the slot's own bucket, in storage order, then recycles
// the slot's chunks. The other identifiers are stale copies (lazy
// deletion, §3.2) and are dropped. Below the fork cut-off the pass is
// one plain loop over every chunk; above it, one order-preserving
// region whose blocks span chunk boundaries (compactForked). live grows
// the way one filter per chunk would grow it: by at least a chunk, and
// to at least double.
func (b *Par) compact(bk *chunkedBucket, id ID) {
	if forks(bk.n) {
		b.compactForked(bk, id)
	} else {
		live := b.scr.live[:0]
		for _, c := range bk.chunks {
			live = reserve(live, len(c))
			for _, v := range c {
				if b.d(v) == id {
					live = append(live, v)
				}
			}
		}
		b.scr.live = live
	}
	b.recycle(bk)
}

// compactForked is compact's forked arm: every block filters its share
// of the slot into its own range of live's spare capacity, then one
// sequential pass closes the gaps between the blocks' survivors.
func (b *Par) compactForked(bk *chunkedBucket, id ID) {
	live := reserve(b.scr.live[:0], bk.n)
	at := b.scr.at[:0]
	off := 0
	for _, c := range bk.chunks {
		at = append(at, off)
		off += len(c)
	}
	nb := 4 * parallel.WorkersFor(int64(bk.n))
	if cap(b.scr.kept) < nb {
		b.scr.kept = make([]int, nb)
	}
	b.scr.at = at
	b.cmp = compactState{
		id: id, chunks: bk.chunks, at: at, kept: b.scr.kept[:nb],
		size: (bk.n + nb - 1) / nb, out: live[:bk.n],
	}
	parallel.For(nb, 1, b.compactPass)
	end := 0
	for blk, kept := range b.cmp.kept {
		from := min(blk*b.cmp.size, bk.n)
		end += copy(live[end:cap(live)], live[from:from+kept])
	}
	b.scr.live = live[:end]
	b.cmp = compactState{}
}

// reserve returns buf with room for n more elements, growing it to at
// least twice its capacity when it must grow.
func reserve(buf []uint32, n int) []uint32 {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	grown := make([]uint32, len(buf), max(len(buf)+n, 2*cap(buf)))
	copy(grown, buf)
	return grown
}

// recycle hands every chunk of slot bk to the free list and empties the
// slot, clearing the chunk pointers so the retained header array does
// not pin the recycled chunks against eviction from the free list.
func (b *Par) recycle(bk *chunkedBucket) {
	for i, c := range bk.chunks {
		b.freePut(c)
		bk.chunks[i] = nil
	}
	bk.chunks = bk.chunks[:0]
	bk.n = 0
}

// UpdateBuckets implements Structure (§3.2 with §3.3's block
// histogram; see update).
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
// updates and returns how many identifiers it moved. A batch below the
// fork cut-off is counted and scattered on the caller (updateSeq); a
// larger one runs §3.3's block histogram in parallel (updateBlocks).
func (b *Par) update(k int, f func(j int) (uint32, Dest)) int64 {
	// The block histograms, per-slot counts and scatter offsets are
	// uint32; a batch of 2^32 or more updates would silently wrap them
	// and scatter identifiers into the wrong buckets. Fail loudly
	// instead, mirroring the DeltaStepping bucket-id guard.
	if uint64(k) > math.MaxUint32 {
		panic(fmt.Sprintf("bucket: UpdateBuckets batch of %d updates overflows the uint32 offset space; split the batch below 2^32 identifiers", k))
	}
	b.debugCheckUpdate(k, f)
	if forks(k) {
		return b.updateBlocks(k, f)
	}
	return b.updateSeq(k, f)
}

// updateSeq applies a batch on the caller: one count over the batch
// that records the slots it touches, one exact chunk per touched slot,
// one scatter. It costs O(k + touched slots). Each chunk is filled in
// batch order, so a slot receives exactly the chunk the block histogram
// would give it; the chunks are only allocated in a different order
// (first touch, not slot order), which the free list may answer
// differently.
func (b *Par) updateSeq(k int, f func(j int) (uint32, Dest)) int64 {
	fill, chunks := b.scr.fill, b.scr.chunks
	touched := b.scr.starts[:0]
	for j := 0; j < k; j++ {
		if _, dest := f(j); dest != None {
			if fill[dest] == 0 {
				touched = append(touched, uint32(dest))
			}
			fill[dest]++
		}
	}
	var total int64
	for _, s := range touched {
		n := int(fill[s])
		c := b.chunkAlloc(n)
		chunks[s] = c
		bk := &b.bkts[s]
		bk.chunks = append(bk.chunks, c)
		bk.n += n
		total += int64(n)
		fill[s] = 0
	}
	for j := 0; j < k; j++ {
		if id, dest := f(j); dest != None {
			chunks[dest][fill[dest]] = id
			fill[dest]++
		}
	}
	for _, s := range touched {
		fill[s] = 0
	}
	b.scr.starts = touched
	return total
}

// updateBlocks applies a batch above the fork cut-off by §3.3's block
// histogram: the k updates are split into blocks of M = 2048; each
// block counts its identifiers per destination slot; one scan over the
// slot-major count matrix yields exact write offsets; a second pass
// scatters identifiers directly into a fresh exact-size chunk per
// destination bucket.
func (b *Par) updateBlocks(k int, f func(j int) (uint32, Dest)) int64 {
	nSlots := b.nB + 1
	nb := (k + updateBlock - 1) / updateBlock
	need := nSlots * nb
	if cap(b.scr.counts) < need {
		b.scr.counts = make([]uint32, need)
	}
	if cap(b.scr.starts) < nSlots+1 {
		b.scr.starts = make([]uint32, nSlots+1)
	}
	b.upd = updState{
		k: k, nb: nb, f: f,
		counts: b.scr.counts[:need],
		starts: b.scr.starts[:nSlots+1],
		chunks: b.scr.chunks,
	}
	counts, starts := b.upd.counts, b.upd.starts

	// Pass 1: per-block histograms, laid out slot-major so that one
	// exclusive scan produces, for every (slot, block), the offset of
	// that block's contribution within the slot's incoming batch.
	parallel.For(need, parallel.DefaultGrain, b.zeroPass)
	parallel.For(nb, 1, b.histPass)
	total := parallel.Scan(counts, counts)

	// Allocate each destination bucket's chunk once (§3.2: "in
	// parallel, resize all buckets that have identifiers moving to
	// them" — chunking makes the resize a fresh exact-size array
	// instead of a copying reallocation). It runs on the caller, which
	// keeps the free list single-threaded, and walks every slot: nB + 1
	// steps against a batch past the fork cut-off, after a scan that
	// already read nB + 1 counts per block. The chunk table needs no
	// clearing because pass 2 only reads entries for slots with incoming
	// identifiers, which this loop always writes.
	for s := 0; s < nSlots; s++ {
		starts[s] = counts[s*nb]
	}
	starts[nSlots] = total
	for s, end := range starts[1:] {
		if incoming := int(end - starts[s]); incoming > 0 {
			c := b.chunkAlloc(incoming)
			b.upd.chunks[s] = c
			bk := &b.bkts[s]
			bk.chunks = append(bk.chunks, c)
			bk.n += incoming
		}
	}

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

// chunkAlloc returns a length-n array for a chunk (or the overflow
// flatten), recycled when the free list holds one of n's size class.
// Capacities are powers of two, so any array of the class serves any
// request in it, and a structure that runs the same sequence of rounds
// again — the next run of a kernel that borrowed it through Loop.With —
// finds every chunk it asks for: the class lists hold as many arrays as
// were ever live at once in each class, and no more.
func (b *Par) chunkAlloc(n int) []uint32 {
	cls := bits.Len(uint(n - 1))
	if l := b.scr.free[cls]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		b.scr.free[cls] = l[:len(l)-1]
		return s[:n]
	}
	return make([]uint32, n, 1<<cls)
}

// freePut recycles a spent identifier array (an emptied bucket slot or
// a drained overflow batch) into the class of its capacity.
func (b *Par) freePut(s []uint32) {
	if cap(s) == 0 {
		return
	}
	cls := bits.Len(uint(cap(s))) - 1
	b.scr.free[cls] = append(b.scr.free[cls], s[:0])
}
