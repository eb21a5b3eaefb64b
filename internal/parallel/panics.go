package parallel

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// This file is the panic-containment half of the substrate's failure
// semantics (DESIGN.md §9). The contract every fork-join primitive in
// this package honors:
//
//   - a panic in a user callback never escapes from a pool helper
//     (which would crash the whole process: Go terminates on any
//     unrecovered panic, whichever goroutine it is on): the core runs
//     every chunk, on the caller and on helpers alike, under
//     recoverPanic (job.chunk in run.go), and a helper that caught one
//     goes back to the pool;
//   - every chunk of the region still runs, and the caller's join
//     completes before the panic resurfaces, so no helper is left
//     inside the job of a call that has returned;
//   - the panic re-raised on the caller is a single *PanicError wrapping
//     the first captured value and the stack of the goroutine it was
//     raised on, regardless of how many chunks panicked;
//   - pooled scratch held across the region is released on the unwind
//     path (WithScratch, the only way to borrow, defers the return), so
//     a contained panic leaves the pool balanced.
//
// Sequential fallback paths wrap panics the same way, so callers see
// one contract at every GOMAXPROCS.

// PanicError is a panic captured in a parallel region and re-raised on
// the calling goroutine. Value is the original panic value; Stack is
// the panicking worker's stack at capture time (the caller's own stack,
// which the runtime prints, would otherwise end at the fork point).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic in parallel region: %v", e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// wrapPanic boxes a recovered value, passing through values that are
// already wrapped so nested regions re-raise the innermost capture
// unchanged (one wrap, one stack, however deep the nesting).
func wrapPanic(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// rewrapPanic, used as `defer rewrapPanic()`, converts an in-flight
// panic on the current goroutine to the wrapped form. It backs the
// sequential paths of the primitives (open-coded defer: no allocation
// on the non-panicking path, which the zero-alloc steady-state tests
// pin).
func rewrapPanic() {
	if v := recover(); v != nil {
		panic(wrapPanic(v))
	}
}

// panicCatcher collects the first panic of a region. Each chunk runs
// under `defer pc.recoverPanic()`; the caller re-raises after the join.
// The deferred recover runs while the panicking frames are still live,
// so the captured stack includes the true panic site.
type panicCatcher struct {
	first atomic.Pointer[PanicError]
}

// recoverPanic is the chunk-side recover wrapper. It must be deferred
// directly (`defer pc.recoverPanic()`) so recover() sees the panic of
// the goroutine running the chunk.
func (pc *panicCatcher) recoverPanic() {
	if v := recover(); v != nil {
		pc.first.CompareAndSwap(nil, wrapPanic(v))
	}
}
