//go:build julienne_debug

package bucket

import "testing"

// This file proves the arena-lifetime rule of debug_on.go is
// load-bearing: a caller deliberately keeps the slice an extraction
// call returned past each call that ends its lifetime, on both
// implementations, and must find it poisoned — and still poisoned after
// the structure has run on, because the buffer behind it was dropped.

// arenaFixture is six identifiers in buckets 0,0,1,2,2,3.
func arenaFixture(impl string) Structure {
	d := []ID{0, 0, 1, 2, 2, 3}
	dfn := func(i uint32) ID { return d[i] }
	if impl == "par" {
		return New(len(d), dfn, Increasing, Options{OpenBuckets: 8})
	}
	return NewSeq(len(d), dfn, Increasing)
}

func allNil(ids []uint32) bool {
	for _, id := range ids {
		if id != uint32(Nil) {
			return false
		}
	}
	return true
}

func TestDebugStaleArenaSliceIsPoisoned(t *testing.T) {
	enders := map[string]func(b Structure){
		"NextBucket": func(b Structure) { b.NextBucket() },
		"UpdateBuckets": func(b Structure) {
			b.UpdateBuckets(1, func(int) (uint32, Dest) { return 5, None })
		},
	}
	for _, impl := range []string{"par", "seq"} {
		for across, end := range enders {
			t.Run(impl+"/NextBucket/across-"+across, func(t *testing.T) {
				b := arenaFixture(impl)
				_, held := b.NextBucket()
				if len(held) == 0 || allNil(held) {
					t.Fatalf("NextBucket returned %v, want live identifiers", held)
				}
				end(b)
				if !allNil(held) {
					t.Fatalf("slice held across %s reads %v, want all Nil", across, held)
				}
				for id, _ := b.NextBucket(); id != Nil; id, _ = b.NextBucket() {
				}
				if !allNil(held) {
					t.Fatalf("a later round wrote %v into the stale slice", held)
				}
			})
		}
	}
}

// TestDebugArenaSliceReadableInsideUpdate pins the other side of the
// UpdateBuckets rule: the update closure is the one place that may
// still read the extracted identifiers, so poisoning waits for the
// call's return.
func TestDebugArenaSliceReadableInsideUpdate(t *testing.T) {
	for _, impl := range []string{"par", "seq"} {
		b := arenaFixture(impl)
		_, held := b.NextBucket()
		want := append([]uint32(nil), held...)
		seen := make([]uint32, len(held))
		b.UpdateBuckets(len(held), func(j int) (uint32, Dest) {
			seen[j] = held[j]
			return held[j], None
		})
		for j := range want {
			if seen[j] != want[j] {
				t.Fatalf("%s: closure read %v, want %v", impl, seen, want)
			}
		}
		if !allNil(held) {
			t.Fatalf("%s: slice still reads %v after UpdateBuckets returned", impl, held)
		}
	}
}
