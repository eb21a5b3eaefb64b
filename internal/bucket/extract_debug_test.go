//go:build julienne_debug

package bucket

import (
	"strings"
	"testing"
)

// This file proves the julienne_debug extraction invariants are load-
// bearing: each assertion of checkExtract is violated with fabricated
// evidence — no API sequence can violate them unless the implementation
// itself is broken — and the test requires the panic to trip with its
// documented message.

func expectDebugPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

func TestDebugCheckExtractViolations(t *testing.T) {
	dOf := func(vals map[uint32]ID) func(uint32) ID {
		return func(i uint32) ID { return vals[i] }
	}
	t.Run("empty frontier", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "returned an empty frontier", func() {
			dbg.checkExtract(Increasing, 2, nil, -1, dOf(nil), Stats{})
		})
	})
	t.Run("identifier out of range", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "out of range [0,4)", func() {
			dbg.checkExtract(Increasing, 2, []uint32{7}, 4, dOf(map[uint32]ID{7: 2}), Stats{})
		})
	})
	t.Run("stale identifier", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "with D(i)=9", func() {
			dbg.checkExtract(Increasing, 2, []uint32{0}, -1, dOf(map[uint32]ID{0: 9}), Stats{})
		})
	})
	t.Run("duplicate identifier", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "extracted twice from bucket 2", func() {
			dbg.checkExtract(Increasing, 2, []uint32{0, 0}, -1, dOf(map[uint32]ID{0: 2}), Stats{})
		})
	})
	t.Run("monotonicity across rounds", func(t *testing.T) {
		dbg := debugState{last: 7, hasLast: true}
		expectDebugPanic(t, "after 7 under Increasing order", func() {
			dbg.checkExtract(Increasing, 2, []uint32{0}, -1, dOf(map[uint32]ID{0: 2}), Stats{})
		})
		dbg = debugState{last: 1, hasLast: true}
		expectDebugPanic(t, "after 1 under Decreasing order", func() {
			dbg.checkExtract(Decreasing, 2, []uint32{0}, -1, dOf(map[uint32]ID{0: 2}), Stats{})
		})
	})
	t.Run("stats divergence", func(t *testing.T) {
		var dbg debugState
		expectDebugPanic(t, "extraction bookkeeping", func() {
			// A valid round whose Stats claim nothing was extracted.
			dbg.checkExtract(Increasing, 2, []uint32{0}, -1, dOf(map[uint32]ID{0: 2}), Stats{})
		})
	})
}

// TestDebugCheckSeedViolations: a seed that leaves out an identifier
// starting in a bucket, lists one twice, or names one out of range
// trips fill's seed assertion before anything is inserted.
func TestDebugCheckSeedViolations(t *testing.T) {
	d := func(i uint32) ID {
		if i == 2 || i == 5 {
			return 3
		}
		return Nil
	}
	for _, c := range []struct {
		name string
		seed []uint32
		want string
	}{
		{"identifier left out", []uint32{2}, "identifier 5 is outside the seed but starts in bucket 3"},
		{"identifier listed twice", []uint32{2, 5, 2}, "seed lists identifier 2 twice"},
		{"identifier out of range", []uint32{2, 5, 8}, "seed identifier 8 out of range [0,8)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			expectDebugPanic(t, c.want, func() { new(Par).fill(8, c.seed, d, Increasing, Options{}) })
		})
	}
	new(Par).fill(8, []uint32{5, 2}, d, Increasing, Options{}) // a seed in any order passes
}
