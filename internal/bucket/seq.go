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
// bucket's own storage. The cursor stays on the returned bucket, so
// identifiers reinserted into it are revisited.
func (s *Seq) NextBucket() (ID, []uint32) {
	s.debugPoisonArena()
	step := int64(1)
	if s.order == Decreasing {
		step = -1
	}
	for ; s.cur >= 0 && s.cur < int64(len(s.bkts)); s.cur += step {
		live, ok := s.compact()
		if !ok {
			continue
		}
		id := ID(s.cur)
		s.ctr.extracted.Add(int64(len(live)))
		s.ctr.returned.Add(1)
		s.rec.Add(obs.CtrBucketExtracted, int64(len(live)))
		s.rec.Inc(obs.CtrBucketReturned)
		s.debugCheckExtract(id, live)
		return id, live
	}
	return Nil, nil
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

// GetBucket implements Structure. For the exact representation the
// destination is the target bucket id itself; None filters the cases
// no physical move is needed.
func (s *Seq) GetBucket(prev, next ID) Dest {
	if next == Nil {
		return None
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
