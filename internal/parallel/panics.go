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
//   - a panic in a user callback never escapes from a non-caller
//     goroutine (which would crash the whole process: Go terminates on
//     any unrecovered panic, whichever goroutine it is on);
//   - all workers of the region are joined before the panic resurfaces,
//     so no goroutine outlives the call that spawned it;
//   - the panic re-raised on the caller is a single *PanicError wrapping
//     the first captured value and its worker stack, regardless of how
//     many workers panicked;
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

// panicCatcher collects the first panic of a group of worker
// goroutines. Workers register `defer pc.recoverPanic()` before any
// user code runs; the forking goroutine calls rethrow after the join.
// The deferred recover runs while the worker's frames are still live,
// so the captured stack includes the true panic site.
type panicCatcher struct {
	first atomic.Pointer[PanicError]
}

// recoverPanic is the worker-side recover wrapper. It must be deferred
// directly (`defer pc.recoverPanic()`) so recover() sees the worker's
// own panic.
func (pc *panicCatcher) recoverPanic() {
	if v := recover(); v != nil {
		pc.first.CompareAndSwap(nil, wrapPanic(v))
	}
}

// protect runs f on the current goroutine under the same capture the
// workers use; Do applies it to the thunk it runs inline so the join
// always completes before any panic resurfaces.
func (pc *panicCatcher) protect(f func()) {
	defer pc.recoverPanic()
	f()
}

// rethrow re-raises the captured panic, if any, on the calling
// goroutine. It must only be called after all workers have joined.
func (pc *panicCatcher) rethrow() {
	if pe := pc.first.Load(); pe != nil {
		panic(pe)
	}
}
