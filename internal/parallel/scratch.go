package parallel

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// This file implements the pooled scratch buffers behind the
// allocation-free steady state of the sequence primitives. Every
// primitive that needs per-call temporary storage (block sums in Scan,
// per-block survivor counts in FilterIndex, partial results in Reduce)
// borrows it from a type-indexed sync.Pool instead of allocating, so a
// hot loop that calls the same primitive every round reaches a steady
// state with no per-round garbage — the property the paper's work bounds implicitly assume and
// GBBS identifies as a large constant-factor win in practice.
//
// Buffers travel through the pool as *scratch[T] rather than []T so the
// round-trip moves a single pointer and never re-boxes a slice header
// (which would itself allocate). Callers never see the box: WithScratch
// is the only way to borrow and it returns the buffer itself, so a
// borrow without its release cannot be written.

// scratch is the pooled box around one scratch buffer.
type scratch[T any] struct {
	s []T
}

// scratchPools maps the element type of a scratch buffer to the
// sync.Pool holding buffers of that type. The per-type lookup is one
// allocation-free sync.Map read.
var scratchPools sync.Map // reflect.Type -> *sync.Pool

func poolOf[T any]() *sync.Pool {
	key := reflect.TypeFor[T]()
	if p, ok := scratchPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := scratchPools.LoadOrStore(key, &sync.Pool{
		New: func() any { return new(scratch[T]) },
	})
	return p.(*sync.Pool)
}

// scratchGets/scratchPuts count pool borrows and returns. WithScratch
// defers the return, so at any quiescent point (no parallel primitive
// mid-flight) the two counters are equal — even after a contained panic
// unwound the region that held the buffer. The failure-semantics tests
// pin exactly that invariant; the counters are two uncontended atomic
// adds next to the sync.Map lookup the pool already pays, and the hot
// loops borrow scratch once per round, not per element.
var scratchGets, scratchPuts atomic.Int64

// ScratchBalance is a snapshot of the pool's borrow/return traffic.
type ScratchBalance struct {
	Gets, Puts int64
}

// Balanced reports whether every borrowed buffer has been returned.
func (b ScratchBalance) Balanced() bool { return b.Gets == b.Puts }

// ScratchStats returns the cumulative borrow/return counts. Only
// meaningful at quiescent points: a primitive mid-call legitimately
// holds unreleased scratch.
func ScratchStats() ScratchBalance {
	// Read puts first: a concurrent borrow-then-release between the two
	// loads can then only show Gets >= Puts, never a phantom imbalance
	// in the direction the tests assert on.
	puts := scratchPuts.Load()
	gets := scratchGets.Load()
	return ScratchBalance{Gets: gets, Puts: puts}
}

// WithScratch borrows a scratch buffer of length n (contents arbitrary;
// callers that need zeroed memory clear it themselves) from the pool
// for T, runs f on it, and returns it to the pool when f returns or
// panics. f must not retain s: the next borrower reuses its storage.
func WithScratch[T any](n int, f func(s []T)) {
	b := poolOf[T]().Get().(*scratch[T])
	if cap(b.s) < n {
		b.s = make([]T, n)
	}
	b.s = b.s[:n]
	scratchGets.Add(1)
	defer b.release()
	f(b.s)
}

func (b *scratch[T]) release() {
	scratchPuts.Add(1)
	poolOf[T]().Put(b)
}
