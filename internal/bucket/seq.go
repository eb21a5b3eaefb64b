package bucket

import "julienne/internal/obs"

// Seq is the sequential bucketing implementation of §3.2: buckets are
// represented exactly (one dynamic array per logical bucket id), updates
// are lazy insertions, and NextBucket compacts the current bucket by
// dropping identifiers whose D no longer matches. Dest values for Seq
// are simply the destination bucket id ("bucket_dest and bucket_id
// types are identical... getBucket just returns next").
//
// Seq is the oracle for differential tests and the honest
// single-threaded baseline for the benchmarks.
type Seq struct {
	d     func(uint32) ID
	order Order
	bkts  [][]uint32 // bkts[b] holds (possibly stale) copies for bucket b
	cur   int64      // logical id of the current bucket (may be -1 done)
	ctr   counters
	rec   *obs.Recorder

	// span mirrors Par's fused span: while active, UpdateBuckets
	// routes destinations inside it to the lazy buffer instead of
	// bucket storage (Seq's Dest is the bucket id itself, so no
	// dedicated lazy Dest value is needed — membership is checked at
	// insertion time).
	span fusedSpan
	// lazy receives in-span insertions; lazyOut is the separate drain
	// buffer handed to callers, so insertions during the caller's round
	// cannot stomp the slice DrainLazy returned.
	lazy    []uint32
	lazyOut []uint32

	// dbg holds invariant-assertion state; zero-sized unless the build
	// is tagged julienne_debug (see debug_on.go / debug_off.go).
	dbg debugState
}

var _ Structure = (*Seq)(nil)

// NewSeq creates the sequential structure over identifiers [0, n) with
// initial buckets given by d (Nil means "not bucketed") traversed in
// the given order. d is retained and re-evaluated lazily, so it must
// reflect the algorithm's current identifier-to-bucket mapping.
func NewSeq(n int, d func(uint32) ID, order Order) *Seq {
	s := &Seq{d: d, order: order}
	// Initial bucket count = 1 + max initial id (§3.2: "computing the
	// initial number of buckets by iterating over D").
	maxB := ID(0)
	any := false
	for i := 0; i < n; i++ {
		if b := d(uint32(i)); b != Nil {
			any = true
			if b > maxB {
				maxB = b
			}
		}
	}
	total := 0
	if any {
		total = int(maxB) + 1
	}
	s.bkts = make([][]uint32, total)
	for i := 0; i < n; i++ {
		if b := d(uint32(i)); b != Nil {
			s.bkts[b] = append(s.bkts[b], uint32(i))
		}
	}
	if order == Increasing {
		s.cur = 0
	} else {
		s.cur = int64(total) - 1
	}
	return s
}

// NextBucket implements Structure. The returned slice is the consumed
// bucket's own storage.
func (s *Seq) NextBucket() (ID, []uint32) {
	id, _, live := s.extract(false, 0, 0)
	return id, live
}

// compact drops stale copies (D(i) != cur) from the current bucket in
// place and empties it, returning the live identifiers; ok is false if
// none were live.
func (s *Seq) compact() ([]uint32, bool) {
	b := s.bkts[s.cur]
	if len(b) == 0 {
		return nil, false
	}
	live := b[:0]
	for _, id := range b {
		if s.d(id) == ID(s.cur) {
			live = append(live, id)
		}
	}
	s.bkts[s.cur] = nil
	if len(live) == 0 {
		return nil, false
	}
	return live, true
}

// NextBucketFused implements Structure with the exact fusion rule Par
// uses (the differential suite compares the two in lockstep): the
// first non-empty bucket is always included whole; each subsequent
// non-empty bucket joins the run iff the combined frontier stays
// within maxFrontier and the covered span stays within maxSpan. A
// rejected bucket's compacted survivors are written back and revisited
// by the next extraction.
func (s *Seq) NextBucketFused(maxFrontier, maxSpan int) (ID, ID, []uint32) {
	return s.extract(true, maxFrontier, maxSpan)
}

// extract is the one extraction walk behind NextBucket (fuse false: the
// walk stops at the first non-empty bucket and leaves the cursor on it)
// and NextBucketFused.
func (s *Seq) extract(fuse bool, maxFrontier, maxSpan int) (first, last ID, out []uint32) {
	s.debugPoisonArena()
	s.closeSpan()
	step := int64(1)
	if s.order == Decreasing {
		step = -1
	}
	first, last = Nil, Nil
	run := 0
	for s.cur >= 0 && s.cur < int64(len(s.bkts)) {
		live, ok := s.compact()
		if !ok {
			s.cur += step
			continue
		}
		if first == Nil {
			first, last = ID(s.cur), ID(s.cur)
			run = 1
			if !fuse {
				out = live
				break
			}
			out = append(out, live...)
			s.cur += step
			continue
		}
		width := int(s.cur-int64(first)) + 1
		if s.order == Decreasing {
			width = int(int64(first)-s.cur) + 1
		}
		// out and live are both non-empty here, so maxFrontier < 1 rejects
		// every candidate exactly as 1 does.
		if len(out)+len(live) > maxFrontier || (maxSpan >= 1 && width > maxSpan) {
			// Rejected: put the compacted survivors back for the next
			// extraction, which starts here.
			s.bkts[s.cur] = live
			break
		}
		last = ID(s.cur)
		run++
		out = append(out, live...)
		s.cur += step
	}
	if first == Nil {
		return Nil, Nil, nil
	}
	if fuse {
		// The walk passed over empty buckets (probed, or the stretch up
		// to a rejected candidate) that this round's insertions may yet
		// land in. Rewind the cursor to just after the last fused bucket
		// so they stay ahead of the traversal instead of being dropped as
		// behind it.
		s.cur = int64(last) + step
		s.rec.Add(obs.CtrBucketRoundsSaved, int64(run-1))
		s.rec.Observe(obs.HistFusedRunLen, int64(run))
		s.span = newFusedSpan(s.order, first, last)
	}
	s.ctr.extracted.Add(int64(len(out)))
	s.ctr.returned.Add(1)
	s.rec.Add(obs.CtrBucketExtracted, int64(len(out)))
	s.rec.Inc(obs.CtrBucketReturned)
	s.debugCheckExtract(first, last, out)
	return first, last, out
}

// DrainLazy implements Structure: it returns the live identifiers
// lazily inserted into the active span and empties the lazy buffer. The returned slice is valid until the next DrainLazy
// call.
func (s *Seq) DrainLazy() []uint32 {
	s.debugPoisonArena()
	if !s.span.active || len(s.lazy) == 0 {
		return nil
	}
	out := s.lazyOut[:0]
	for _, id := range s.lazy {
		if s.span.contains(s.d(id)) {
			out = append(out, id)
		}
	}
	s.lazyOut = out
	s.lazy = s.lazy[:0]
	if len(out) == 0 {
		return nil
	}
	s.ctr.extracted.Add(int64(len(out)))
	s.rec.Add(obs.CtrBucketExtracted, int64(len(out)))
	s.rec.Add(obs.CtrBucketLazyDrained, int64(len(out)))
	s.debugCheckLazyDrain(out)
	return out
}

// closeSpan mirrors Par.closeSpan: pending lazy identifiers at the
// next extraction are a caller bug (julienne_debug panics) and are
// dropped in release builds.
func (s *Seq) closeSpan() {
	if !s.span.active {
		return
	}
	s.debugCheckSpanClosed(len(s.lazy))
	s.lazy = s.lazy[:0]
	s.span = fusedSpan{}
}

// GetBucket implements Structure. For the exact representation the
// destination is the target bucket id itself; None filters the cases
// no physical move is needed.
func (s *Seq) GetBucket(prev, next ID) Dest {
	if next == Nil {
		return None
	}
	// Destinations inside the active fused span stay physical updates
	// even when next == prev or next is behind the traversal cursor:
	// the span's storage was consumed by the fused extraction, so the
	// identifier needs a fresh (lazy) copy to be processed this round.
	// UpdateBuckets routes in-span destinations to the lazy buffer.
	if s.span.contains(next) {
		return Dest(next)
	}
	if next == prev {
		return None
	}
	if s.order == Increasing {
		if s.cur >= 0 && next < ID(s.cur) {
			return None // strictly behind the traversal: dead on arrival
		}
	} else {
		if s.cur >= 0 && s.cur < int64(len(s.bkts)) && next > ID(s.cur) {
			return None
		}
	}
	return Dest(next)
}

// UpdateBuckets implements Structure, inserting each identifier into
// its destination bucket and opening new buckets as needed (§3.2:
// "opening new buckets if next is outside the current range").
func (s *Seq) UpdateBuckets(k int, f func(j int) (uint32, Dest)) {
	var moved, skipped int64
	for j := 0; j < k; j++ {
		id, dest := f(j)
		if dest == None {
			skipped++
			continue
		}
		// Lazy insertion: while a fused span is active, destinations
		// inside it bypass bucket storage (which the fused extraction
		// already consumed) and queue for DrainLazy instead.
		if s.span.contains(ID(dest)) {
			s.lazy = append(s.lazy, id)
			moved++
			continue
		}
		b := int(dest)
		for b >= len(s.bkts) {
			s.bkts = append(s.bkts, nil)
		}
		s.bkts[b] = append(s.bkts[b], id)
		moved++
	}
	s.ctr.moved.Add(moved)
	s.ctr.skipped.Add(skipped)
	s.rec.Add(obs.CtrBucketMoved, moved)
	s.rec.Add(obs.CtrBucketSkipped, skipped)
	s.debugCheckUpdateTotals(k, moved, skipped)
	// Only now: f may have been reading the extracted identifiers.
	s.debugPoisonArena()
}

// Stats implements Structure; it is safe to call concurrently with
// NextBucket/UpdateBuckets.
func (s *Seq) Stats() Stats { return s.ctr.snapshot() }

// Observe attaches a telemetry recorder receiving obs.CtrBucket*
// counters (NewSeq takes no Options, so the recorder is attached
// separately). It returns s for chaining.
func (s *Seq) Observe(rec *obs.Recorder) *Seq {
	s.rec = rec
	return s
}
