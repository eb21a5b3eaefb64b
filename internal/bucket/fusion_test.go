package bucket

import (
	"math"
	"testing"
)

// --- fused extraction (DESIGN.md §11) ------------------------------------

// ids returns a sorted copy helper is in bucket_test.go (asSet); these
// tests compare sets because Par's intra-bucket order is unspecified.

func wantSet(t *testing.T, what string, got []uint32, want ...uint32) {
	t.Helper()
	g := asSet(got)
	if len(g) != len(got) {
		t.Fatalf("%s: duplicate identifiers in %v", what, got)
	}
	if len(g) != len(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for _, id := range want {
		if !g[id] {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
	}
}

// TestNextBucketFusedRuns exercises the fusion rule on a handcrafted
// layout — runs bounded by maxFrontier, runs bounded by maxSpan with a
// rejected bucket written back, and the cursor rewind that lets this
// round's insertions land between the fused span and the rejection
// point.
func TestNextBucketFusedRuns(t *testing.T) {
	// Buckets: 0:{0,1} 1:{2} 2:{3,4,5} 5:{6,7} 9:{8,9}.
	d := []ID{0, 0, 1, 2, 2, 2, 5, 5, 9, 9}
	dfn := func(i uint32) ID { return d[i] }
	b := New(len(d), dfn, Increasing, Options{OpenBuckets: 16})

	// maxFrontier 6 admits buckets 0,1,2 (2+1+3 identifiers) and then
	// stops: the frontier is full, bucket 5 cannot join.
	first, last, ids := b.NextBucketFused(6, 0)
	if first != 0 || last != 2 {
		t.Fatalf("fused run = [%d, %d], want [0, 2]", first, last)
	}
	wantSet(t, "fused frontier", ids, 0, 1, 2, 3, 4, 5)
	for _, id := range ids {
		d[id] = Nil // retire the whole frontier
	}

	// maxSpan 3 admits bucket 5 alone: 9 is 5 ids away, so it is
	// rejected and written back for a later extraction.
	first, last, ids = b.NextBucketFused(10, 3)
	if first != 5 || last != 5 {
		t.Fatalf("fused run = [%d, %d], want [5, 5]", first, last)
	}
	wantSet(t, "span-bounded frontier", ids, 6, 7)

	// The walk probed past buckets 6..8 before rejecting 9; an insertion
	// into bucket 7 this round must still be accepted (cursor rewound to
	// just after the fused run) and extracted before bucket 9.
	d[6], d[7] = 7, Nil
	dest := b.GetBucket(5, 7)
	if dest == None {
		t.Fatal("insertion between the fused run and the rejected bucket was dropped")
	}
	b.UpdateBuckets(1, func(int) (uint32, Dest) { return 6, dest })
	if got := b.DrainLazy(); got != nil {
		t.Fatalf("DrainLazy returned %v for an out-of-span insertion", got)
	}

	first, last, ids = b.NextBucketFused(10, 1)
	if first != 7 || last != 7 {
		t.Fatalf("fused run = [%d, %d], want [7, 7]", first, last)
	}
	wantSet(t, "rewound frontier", ids, 6)
	d[6] = Nil

	// The rejected bucket finally comes out intact.
	first, last, ids = b.NextBucketFused(10, 0)
	if first != 9 || last != 9 {
		t.Fatalf("fused run = [%d, %d], want [9, 9]", first, last)
	}
	wantSet(t, "rejected bucket", ids, 8, 9)

	s := b.Stats()
	if s.BucketsReturned != 4 || s.Extracted != 11 {
		t.Fatalf("Stats = %+v, want BucketsReturned=4 Extracted=11", s)
	}
}

// TestFusedLazyInsertion pins the lazy-insertion path: while the fused
// span is active, destinations inside it (including same-bucket
// reinsertions, whose physical copies the extraction consumed) route to
// the lazy slot and come back through DrainLazy in the same round.
func TestFusedLazyInsertion(t *testing.T) {
	d := []ID{0, 0, 3, 3}
	dfn := func(i uint32) ID { return d[i] }
	for name, b := range map[string]Structure{
		"par": New(len(d), dfn, Increasing, Options{OpenBuckets: 8}),
		"seq": NewSeq(len(d), dfn, Increasing),
	} {
		first, last, ids := b.NextBucketFused(math.MaxInt, 0)
		if first != 0 || last != 3 {
			t.Fatalf("%s: fused run = [%d, %d], want [0, 3]", name, first, last)
		}
		wantSet(t, name+" frontier", ids, 0, 1, 2, 3)

		// 0 reinserts into its own bucket, 2 moves within the span, 1
		// leaves the span, 3 retires.
		prev := []ID{0, 0, 3, 3}
		d[0], d[1], d[2], d[3] = 0, 5, 2, Nil
		dests := make([]Dest, 4)
		for i := range dests {
			dests[i] = b.GetBucket(prev[i], d[i])
		}
		if dests[3] != None {
			t.Fatalf("%s: retirement got dest %d, want None", name, dests[3])
		}
		b.UpdateBuckets(4, func(j int) (uint32, Dest) { return uint32(j), dests[j] })

		lz := b.DrainLazy()
		wantSet(t, name+" lazy drain", lz, 0, 2)

		// Settle the drained identifiers outside the span; the span is
		// then fully drained and the next extraction finds bucket 5.
		d[0], d[2] = 5, 5
		for _, id := range []uint32{0, 2} {
			dst := b.GetBucket(0, 5)
			b.UpdateBuckets(1, func(int) (uint32, Dest) { return id, dst })
		}
		if got := b.DrainLazy(); got != nil {
			t.Fatalf("%s: second DrainLazy = %v, want nil", name, got)
		}
		id, ids2 := b.NextBucket()
		if id != 5 {
			t.Fatalf("%s: next bucket = %d, want 5", name, id)
		}
		wantSet(t, name+" settled bucket", ids2, 0, 1, 2)
		d[0], d[1], d[2], d[3] = 0, 0, 3, 3 // reset for the second implementation
	}
}

// TestFusedProbeDoesNotExhaust is the regression test for the fatal
// first-cut bug: when only one bucket is occupied, the fusion walk used
// to probe clean through the open range and the (empty) overflow
// bucket, marking the structure done — dropping every insertion the
// caller was about to make and ending ∆-stepping after one round.
func TestFusedProbeDoesNotExhaust(t *testing.T) {
	for _, order := range []Order{Increasing, Decreasing} {
		d := []ID{7, Nil, Nil}
		dfn := func(i uint32) ID { return d[i] }
		b := New(len(d), dfn, order, Options{OpenBuckets: 4})
		first, last, ids := b.NextBucketFused(math.MaxInt, 0)
		if first != 7 || last != 7 {
			t.Fatalf("order %v: fused run = [%d, %d], want [7, 7]", order, first, last)
		}
		wantSet(t, "lone bucket", ids, 0)

		// The structure must still accept and serve insertions.
		next := ID(8)
		if order == Decreasing {
			next = 6
		}
		d[1] = next
		dest := b.GetBucket(Nil, next)
		if dest == None {
			t.Fatalf("order %v: insertion after an exhausting probe was dropped", order)
		}
		b.UpdateBuckets(1, func(int) (uint32, Dest) { return 1, dest })
		id, ids2 := b.NextBucket()
		if id != next {
			t.Fatalf("order %v: next bucket = %d, want %d", order, id, next)
		}
		wantSet(t, "post-probe insertion", ids2, 1)
	}
}

// TestFusedRangeBoundary pins the open-range rule: a fused run never
// crosses the range boundary (probing further would redistribute the
// overflow bucket before this round's insertions exist), insertions
// into the stranded region beyond the boundary go to overflow as
// usual, and the run resumes after a normal range advance.
func TestFusedRangeBoundary(t *testing.T) {
	// Range [0, 3] with every open bucket occupied; 4 and 5 sit in
	// overflow at bucket 10.
	d := []ID{0, 1, 2, 3, 10, 10}
	dfn := func(i uint32) ID { return d[i] }
	b := New(len(d), dfn, Increasing, Options{OpenBuckets: 4})

	first, last, ids := b.NextBucketFused(math.MaxInt, 0)
	if first != 0 || last != 3 {
		t.Fatalf("fused run = [%d, %d], want [0, 3] (must stop at the range boundary)", first, last)
	}
	wantSet(t, "range-wide frontier", ids, 0, 1, 2, 3)

	// An insertion into the stranded region (past the boundary, before
	// the overflow anchor) must survive via the overflow bucket.
	d[0], d[1], d[2], d[3] = 5, Nil, Nil, Nil
	dest := b.GetBucket(0, 5)
	if dest == None {
		t.Fatal("insertion beyond the range boundary was dropped")
	}
	b.UpdateBuckets(1, func(int) (uint32, Dest) { return 0, dest })

	first, last, ids = b.NextBucketFused(math.MaxInt, 0)
	if first != 5 || last != 5 {
		t.Fatalf("fused run = [%d, %d], want [5, 5]", first, last)
	}
	wantSet(t, "stranded insertion", ids, 0)
	d[0] = Nil

	first, last, ids = b.NextBucketFused(math.MaxInt, 0)
	if first != 10 || last != 10 {
		t.Fatalf("fused run = [%d, %d], want [10, 10]", first, last)
	}
	wantSet(t, "overflow bucket", ids, 4, 5)
	if adv := b.Stats().RangeAdvances; adv < 1 {
		t.Fatalf("RangeAdvances = %d, want >= 1", adv)
	}
}

// TestSeqFusedCursorRewind is the Seq half of the rewind regression: a
// rejected bucket leaves the cursor just after the fused run, so
// insertions between the run and the rejection point are accepted.
func TestSeqFusedCursorRewind(t *testing.T) {
	d := []ID{0, 9}
	dfn := func(i uint32) ID { return d[i] }
	s := NewSeq(len(d), dfn, Increasing)

	first, last, ids := s.NextBucketFused(10, 3)
	if first != 0 || last != 0 {
		t.Fatalf("fused run = [%d, %d], want [0, 0]", first, last)
	}
	wantSet(t, "span-bounded run", ids, 0)

	d[0] = 4
	dest := s.GetBucket(0, 4)
	if dest == None {
		t.Fatal("insertion behind the rejected bucket was dropped")
	}
	s.UpdateBuckets(1, func(int) (uint32, Dest) { return 0, dest })

	first, last, ids = s.NextBucketFused(10, 3)
	if first != 4 || last != 4 {
		t.Fatalf("fused run = [%d, %d], want [4, 4]", first, last)
	}
	wantSet(t, "rewound insertion", ids, 0)
	d[0] = Nil
	id, ids2 := s.NextBucket()
	if id != 9 {
		t.Fatalf("next bucket = %d, want 9", id)
	}
	wantSet(t, "rejected bucket", ids2, 1)
}

// TestDrainLazyDropsStale checks the liveness rule on the lazy slot: an
// identifier whose D moved on between lazy insertion and the drain is
// dropped like any stale copy.
func TestDrainLazyDropsStale(t *testing.T) {
	d := []ID{0, 0, 2}
	dfn := func(i uint32) ID { return d[i] }
	for name, b := range map[string]Structure{
		"par": New(len(d), dfn, Increasing, Options{OpenBuckets: 8}),
		"seq": NewSeq(len(d), dfn, Increasing),
	} {
		_, _, ids := b.NextBucketFused(math.MaxInt, 0)
		wantSet(t, name+" frontier", ids, 0, 1, 2)
		// 0 and 1 reinsert into the span...
		d[0], d[1] = 1, 1
		for _, id := range []uint32{0, 1} {
			dst := b.GetBucket(0, 1)
			b.UpdateBuckets(1, func(int) (uint32, Dest) { return id, dst })
		}
		// ...but 1 retires before the drain, so only 0 comes back.
		d[1] = Nil
		lz := b.DrainLazy()
		wantSet(t, name+" lazy drain", lz, 0)
		d[0], d[1], d[2] = 0, 0, 2 // reset for the second implementation
	}
}

// TestFusedMaxFrontierClamp pins the clamp: maxFrontier below 1 still
// returns the first bucket whole (fusion disabled is expressed by not
// calling NextBucketFused at all, not by a zero budget).
func TestFusedMaxFrontierClamp(t *testing.T) {
	d := []ID{4, 4, 4, 5}
	dfn := func(i uint32) ID { return d[i] }
	b := New(len(d), dfn, Increasing, Options{OpenBuckets: 8})
	first, last, ids := b.NextBucketFused(0, 0)
	if first != 4 || last != 4 {
		t.Fatalf("fused run = [%d, %d], want [4, 4]", first, last)
	}
	wantSet(t, "clamped frontier", ids, 0, 1, 2)
}
