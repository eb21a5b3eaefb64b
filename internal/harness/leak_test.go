package harness

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"julienne/internal/parallel"
)

// leakLog is a TB that records what LeakCheck reports.
type leakLog struct{ errs []string }

func (*leakLog) Helper()                        {}
func (l *leakLog) Errorf(f string, args ...any) { l.errs = append(l.errs, fmt.Sprintf(f, args...)) }

// TestLeakCheckDiscountsIdleHelpersOnly: pool helpers started during a
// test outlive it by design and are no leak — but a helper that is
// still inside a job when the test ends is one.
func TestLeakCheckDiscountsIdleHelpersOnly(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(4))

	var log leakLog
	check := LeakCheck(&log)
	for i := 0; i < 100; i++ { // starts, wakes and re-parks helpers
		parallel.For(1<<14, 64, func(int) {})
	}
	if check(); len(log.errs) != 0 {
		t.Fatalf("idle pool helpers reported as a leak:\n%s", log.errs[0])
	}

	// A region whose helper never comes back. Its caller is a goroutine
	// of the test's, started before the baseline so that it is not the
	// surplus: the stuck helper is.
	start, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var helperIn atomic.Bool
	go func() {
		defer close(finished)
		<-start
		parallel.Workers(1<<10, 4, func(worker, _, _ int) {
			if worker != 0 {
				helperIn.Store(true)
				<-release
			}
			for !helperIn.Load() { // leave the helper a block to take
				runtime.Gosched()
			}
		})
	}()
	check = LeakCheck(&log)
	close(start)
	for deadline := time.Now().Add(10 * time.Second); !helperIn.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("no helper joined the region")
		}
	}
	if check(); len(log.errs) != 1 {
		t.Errorf("a helper stuck inside a job produced %d leak reports, want 1", len(log.errs))
	}
	close(release)
	<-finished
}
