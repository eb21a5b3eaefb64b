package parallel

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// This file implements the pooled scratch buffers behind the
// allocation-free steady state of the sequence primitives and of whole
// kernel runs. Every primitive that needs per-call temporary storage
// (block sums in Scan, per-block survivor counts in FilterIndex, partial
// results in Reduce) borrows it here instead of allocating, and so does
// every kernel for its run-sized state (∆-stepping's destinations,
// k-core's peelers, the bucket structure behind bucket.Loop), so a run
// reaches a steady state that allocates its answer and nothing else —
// the property the paper's work bounds implicitly assume and GBBS
// identifies as a large constant-factor win in practice.
//
// The store is one bounded free list per element type, not a
// sync.Pool. A pool keeps a private copy per P and a victim cache
// besides, so a run-sized buffer could live in several copies at once
// (more resident memory), and it drops everything at a GC (a fresh
// run-sized allocation after every cycle). A free list holds at most
// maxFree boxes per type: enough for the borrows a few concurrent runs
// nest, and a bound on what the process keeps.
//
// Buffers travel as *scratch[T] rather than []T so the round-trip
// moves a single pointer and never re-boxes a slice header (which would
// itself allocate). Callers never see the box: WithScratch is the only
// way to borrow and it returns the buffer itself, so a borrow without
// its release cannot be written.

// maxFree bounds each type's free list; a box returned to a full list
// is left to the garbage collector.
const maxFree = 4

// scratch is the box around one scratch buffer.
type scratch[T any] struct {
	s []T
}

// freeList is one type's store of boxes. The lock is held for a pop or
// a push; borrows happen once per call or per run, never per element.
type freeList[T any] struct {
	mu    sync.Mutex
	boxes []*scratch[T]
}

// freeLists maps the element type of a scratch buffer to its free
// list. The per-type lookup is one allocation-free sync.Map read.
var freeLists sync.Map // reflect.Type -> *freeList[T]

func listOf[T any]() *freeList[T] {
	// Not reflect.TypeFor: it boxes a zero T, which allocates once T is
	// larger than the runtime's shared zero value (a bucket.Par is).
	key := reflect.TypeOf((*T)(nil)).Elem()
	if l, ok := freeLists.Load(key); ok {
		return l.(*freeList[T])
	}
	l, _ := freeLists.LoadOrStore(key, &freeList[T]{boxes: make([]*scratch[T], 0, maxFree)})
	return l.(*freeList[T])
}

// get pops a box, or makes one when the list is empty.
func (l *freeList[T]) get() *scratch[T] {
	l.mu.Lock()
	if k := len(l.boxes) - 1; k >= 0 {
		b := l.boxes[k]
		l.boxes[k] = nil
		l.boxes = l.boxes[:k]
		l.mu.Unlock()
		return b
	}
	l.mu.Unlock()
	scratchFresh.Add(1)
	return new(scratch[T])
}

// put pushes a box back unless the list is full.
func (l *freeList[T]) put(b *scratch[T]) {
	l.mu.Lock()
	if len(l.boxes) < maxFree {
		l.boxes = append(l.boxes, b)
	}
	l.mu.Unlock()
}

// scratchGets/scratchPuts count borrows and returns, scratchFresh the
// boxes made because a type's list was empty. WithScratch defers the
// return, so at any quiescent point (no borrow in flight) gets and
// puts are equal — even after a contained panic unwound the region
// that held the buffer. The failure-semantics tests pin exactly that
// invariant, and a run that follows an identical one makes no fresh
// box; the counters are uncontended atomic adds next to the lock the
// list already takes.
var scratchGets, scratchPuts, scratchFresh atomic.Int64

// ScratchBalance is a snapshot of the store's borrow/return traffic.
type ScratchBalance struct {
	Gets, Puts int64
	// Fresh counts the borrows no free list could serve.
	Fresh int64
}

// Balanced reports whether every borrowed buffer has been returned.
func (b ScratchBalance) Balanced() bool { return b.Gets == b.Puts }

// ScratchStats returns the cumulative borrow/return counts. Only
// meaningful at quiescent points: a primitive or a run mid-call
// legitimately holds unreleased scratch.
func ScratchStats() ScratchBalance {
	// Read puts first: a concurrent borrow-then-release between the two
	// loads can then only show Gets >= Puts, never a phantom imbalance
	// in the direction the tests assert on.
	puts := scratchPuts.Load()
	gets := scratchGets.Load()
	return ScratchBalance{Gets: gets, Puts: puts, Fresh: scratchFresh.Load()}
}

// WithScratch borrows a scratch buffer of length n from the free list
// for T, runs f on it, and returns it to the list when f returns or
// panics. The contents are what the last borrower left: callers that
// need zeroed memory or empty inner slices reset them themselves. f
// must not retain s: the next borrower reuses its storage.
func WithScratch[T any](n int, f func(s []T)) {
	l := listOf[T]()
	b := l.get()
	if cap(b.s) < n {
		b.s = make([]T, n)
	}
	b.s = b.s[:n]
	scratchGets.Add(1)
	defer func() {
		scratchPuts.Add(1)
		l.put(b)
	}()
	f(b.s)
}
