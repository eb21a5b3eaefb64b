package harness

import (
	"runtime"
	"time"

	"julienne/internal/parallel"
)

// TB is the subset of testing.TB the leak checker needs. Taking the
// interface (rather than *testing.T) keeps this file importable from
// any package's tests without dragging testing into harness itself.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// LeakCheck snapshots the goroutine count and returns a function that,
// deferred at the end of the test, verifies the count returned to the
// baseline. The parallel substrate's only goroutines are its pool
// helpers, which outlive every region by design and are discounted
// while they hold no job (parallel.IdleHelpers) — one started during
// the test is no leak, one still inside a job at test end is — so any
// other surplus goroutine at test end is a leak.
//
// Runtime-internal goroutines (GC workers, sync.Pool victims being
// cleaned, finalizer goroutine) start lazily, so the baseline can
// legitimately drift upward a little; the checker retries with a short
// backoff and only reports counts that stay elevated, then dumps all
// stacks so the leaked goroutine is identifiable.
//
//	defer harness.LeakCheck(t)()
func LeakCheck(t TB) func() {
	t.Helper()
	before := liveGoroutines()
	return func() {
		t.Helper()
		var after int
		for i := 0; i < 50; i++ {
			after = liveGoroutines()
			if after <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf)
	}
}

// liveGoroutines counts the goroutines that are somebody's to account
// for: all of them but the idle pool helpers. The two reads are not
// atomic together; LeakCheck's retry loop absorbs a helper caught
// between them.
func liveGoroutines() int {
	return runtime.NumGoroutine() - parallel.IdleHelpers()
}
