package bucket

import "testing"

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

// TestNextBucketFusedRuns pins the maximal run and the cursor rewind on
// both implementations: one call drains every non-empty bucket (Par's
// open range covers them all), and an insertion this round into an
// empty bucket past the run — one the walk already passed — is still
// ahead of the traversal and comes out next.
func TestNextBucketFusedRuns(t *testing.T) {
	for _, impl := range []string{"par", "seq"} {
		t.Run(impl, func(t *testing.T) {
			// Buckets: 0:{0,1} 1:{2} 2:{3,4,5} 5:{6,7} 9:{8,9}, and a copy
			// of 10 in bucket 12 that goes stale before the extraction, so
			// the walk passes empty buckets up to 12 in both structures.
			d := []ID{0, 0, 1, 2, 2, 2, 5, 5, 9, 9, 12}
			dfn := func(i uint32) ID { return d[i] }
			var b Structure = NewSeq(len(d), dfn, Increasing)
			if impl == "par" {
				b = New(len(d), dfn, Increasing, Options{OpenBuckets: 16})
			}
			d[10] = Nil

			first, last, ids := b.NextBucketFused()
			if first != 0 || last != 9 {
				t.Fatalf("fused run = [%d, %d], want [0, 9]", first, last)
			}
			wantSet(t, "maximal frontier", ids, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)

			prev := d[6]
			for i := range d {
				d[i] = Nil
			}
			d[6] = 11
			dest := b.GetBucket(prev, 11)
			if dest == None {
				t.Fatal("insertion past the fused run was dropped")
			}
			b.UpdateBuckets(1, func(int) (uint32, Dest) { return 6, dest })
			if got := b.DrainLazy(); got != nil {
				t.Fatalf("DrainLazy returned %v for an out-of-span insertion", got)
			}

			first, last, ids = b.NextBucketFused()
			if first != 11 || last != 11 {
				t.Fatalf("fused run = [%d, %d], want [11, 11]", first, last)
			}
			wantSet(t, "rewound frontier", ids, 6)
			d[6] = Nil
			if first, _, _ := b.NextBucketFused(); first != Nil {
				t.Fatalf("exhausted structure returned bucket %d", first)
			}

			s := b.Stats()
			if s.BucketsReturned != 2 || s.Extracted != 11 {
				t.Fatalf("Stats = %+v, want BucketsReturned=2 Extracted=11", s)
			}
		})
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
		first, last, ids := b.NextBucketFused()
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
		first, last, ids := b.NextBucketFused()
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

	first, last, ids := b.NextBucketFused()
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

	first, last, ids = b.NextBucketFused()
	if first != 5 || last != 5 {
		t.Fatalf("fused run = [%d, %d], want [5, 5]", first, last)
	}
	wantSet(t, "stranded insertion", ids, 0)
	d[0] = Nil

	first, last, ids = b.NextBucketFused()
	if first != 10 || last != 10 {
		t.Fatalf("fused run = [%d, %d], want [10, 10]", first, last)
	}
	wantSet(t, "overflow bucket", ids, 4, 5)
	if adv := b.Stats().RangeAdvances; adv < 1 {
		t.Fatalf("RangeAdvances = %d, want >= 1", adv)
	}
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
		_, _, ids := b.NextBucketFused()
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
