package bucket

import (
	"strconv"
	"strings"
	"testing"

	"julienne/internal/parallel"
)

// TestUpdateBucketsOverflowGuard pins the uint32 histogram-offset guard:
// a batch of 2^32 or more updates must panic loudly instead of silently
// wrapping the scatter offsets. The guard fires before f is evaluated,
// so a synthetic f that would be far too slow to actually run suffices.
func TestUpdateBucketsOverflowGuard(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("a 2^32-update batch is unrepresentable in a 32-bit int")
	}
	d := []ID{0, 1, 2, 3}
	b := New(len(d), func(i uint32) ID { return d[i] }, Increasing, Options{OpenBuckets: 4})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("UpdateBuckets accepted a 2^32-update batch without panicking")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "overflows") {
			t.Fatalf("unhelpful panic value: %v", r)
		}
	}()
	// A variable shift, so the count is not a constant that overflows a
	// 32-bit int at compile time.
	shift := 32
	b.UpdateBuckets(1<<shift, func(j int) (uint32, Dest) {
		t.Error("f evaluated before the overflow guard fired")
		return 0, None
	})
}

// TestPeelRoundZeroAlloc asserts the tentpole property: once warm, a
// NextBucket + UpdateBuckets round (recorder off, histogram path)
// performs zero allocations. The workload is a forward-marching peel —
// every extracted identifier moves to the next bucket — which exercises
// slot compaction, the arena, and the free-list recycling of emptied
// bucket arrays. OpenBuckets exceeds the round count so no range
// advance (whose reduce closures allocate) lands inside the window.
func TestPeelRoundZeroAlloc(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if DebugEnabled {
		t.Skip("julienne_debug shadow bookkeeping allocates by design")
	}
	old := parallel.SetProcs(1)
	defer parallel.SetProcs(old)

	const n = 2048
	d := make([]ID, n)
	b := New(n, func(i uint32) ID { return d[i] }, Increasing, Options{OpenBuckets: 512})

	var curIDs []uint32
	var cur ID
	move := func(j int) (uint32, Dest) {
		id := curIDs[j]
		return id, b.GetBucket(cur, cur+1)
	}
	round := func() {
		id, ids := b.NextBucket()
		if id == Nil {
			t.Fatal("structure exhausted mid-test")
		}
		cur, curIDs = id, ids
		for _, v := range ids {
			d[v] = id + 1
		}
		b.UpdateBuckets(len(ids), move)
	}
	// Reach steady state: the first rounds grow the arena and seed the
	// free list with recycled bucket arrays.
	for i := 0; i < 5; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("peel round allocates %v allocs/op in steady state, want 0", avg)
	}
}
