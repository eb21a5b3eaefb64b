// Package chaos is the failure-injection harness behind the
// julienne_chaos build tag. Production builds compile the no-op half
// of the Arm/Disarm/Point surface (chaos_off.go): Enabled is a false
// constant, every instrumentation site is guarded by it, and the whole
// package folds away to nothing. Chaos builds
// (`go test -tags julienne_chaos ./internal/chaos/...`) compile the
// live half (chaos_on.go), which executes a seeded, schedule-driven
// Plan at the instrumented sites:
//
//   - SiteWorker fires at the start of every parallel worker block
//     (every region of parallel.For / parallel.Workers and the
//     primitives built on them), the place a user callback runs — an
//     injected panic here exercises the substrate's panic containment
//     exactly where a buggy callback would.
//   - SiteRound fires at every bucket round boundary (the entry of
//     bucket.(*Par).NextBucket) — delays here widen the windows the
//     race detector inspects, and forced cancellations exercise the
//     per-round cancellation points of the algorithm kernels.
//
// Sites are hit-counted atomically, so a Plan names its target as "the
// k-th hit", which is deterministic for a fixed schedule at P = 1 and
// schedule-driven (the same small set of interleavings) at higher P.
// The tests in this package fire plans mid-run and then assert the
// standing invariants: the panic surfaces as a single wrapped
// parallel.PanicError on the caller, no goroutines leak, the scratch
// pool stays balanced, and an immediate re-run is oracle-correct.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Site identifies one class of instrumentation point.
type Site uint8

const (
	// SiteWorker is the start of a parallel worker block.
	SiteWorker Site = iota
	// SiteRound is a bucket round boundary (NextBucket entry).
	SiteRound
	numSites
)

// String names the site for error messages.
func (s Site) String() string {
	switch s {
	case SiteWorker:
		return "worker"
	case SiteRound:
		return "round"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Plan is one injection schedule. Zero fields disable their injection;
// hit counts are 1-based, so PanicAtWorker = 1 panics in the first
// worker block executed after Arm.
type Plan struct {
	// PanicAtWorker panics with an Injected value at the k-th SiteWorker
	// hit. The panic propagates through the substrate's containment
	// machinery like any user-callback panic.
	PanicAtWorker int64
	// DelayAtRound sleeps for Delay at the k-th SiteRound hit,
	// simulating a straggler round (and pushing a run past its
	// deadline, when one is set).
	DelayAtRound int64
	// Delay is the sleep duration for DelayAtRound.
	Delay time.Duration
	// CancelAtRound invokes Cancel (once) at the k-th SiteRound hit,
	// simulating an external kill arriving mid-run.
	CancelAtRound int64
	// Cancel is the callback fired by CancelAtRound — typically a
	// context.CancelFunc.
	Cancel func()
}

// Injected is the value panicked by a PanicAtWorker injection. It
// implements error so recovered values read cleanly in test failures.
type Injected struct {
	Site Site
	Hit  int64
}

func (i Injected) Error() string {
	return fmt.Sprintf("chaos: injected panic at %s hit %d", i.Site, i.Hit)
}

// armed is the live schedule plus its per-site hit counters. It is
// only referenced by the chaos_on half; the off half never touches it.
type armed struct {
	plan     Plan
	hits     [numSites]atomic.Int64
	canceled atomic.Bool
}

// active holds the armed schedule; nil means no injection. A single
// atomic pointer keeps Point's disarmed fast path to one load.
var active atomic.Pointer[armed]
