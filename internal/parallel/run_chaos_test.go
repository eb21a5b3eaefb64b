//go:build julienne_chaos

package parallel_test

// The chaos half of the entry-point table (run_test.go): a panic
// injected at the core's worker site — the start of a chunk, on
// whichever participant claimed it — must surface through every
// primitive exactly like a callback's own panic. `make chaos` runs this
// file beside internal/chaos's kernel-level schedules.

import (
	"bytes"
	"sync/atomic"
	"testing"

	"julienne/internal/chaos"
	"julienne/internal/harness"
	"julienne/internal/parallel"
)

func TestInjectedWorkerPanicEveryEntryPoint(t *testing.T) {
	defer harness.LeakCheck(t)()
	defer chaos.Disarm()
	onHelper := 0
	for _, ep := range entryPoints() {
		t.Run(ep.name, func(t *testing.T) {
			atProcs(4, func() {
				caller := goid()
				// Hold the caller's callbacks back a little, so that the
				// later hits of the schedule land on helpers' chunks.
				var joined atomic.Bool
				hook := func() {
					if goid() != caller {
						joined.Store(true)
					} else if !joined.Load() {
						awaitBriefly(&joined)
					}
				}
				for hit := int64(1); hit <= 6; hit++ {
					chaos.Arm(chaos.Plan{PanicAtWorker: hit})
					pe := recoverPanicError(t, func() { ep.run(hook) })
					chaos.Disarm()
					if pe == nil {
						return
					}
					inj, ok := pe.Value.(chaos.Injected)
					if !ok || inj.Site != chaos.SiteWorker || inj.Hit != hit {
						t.Fatalf("hit %d: PanicError.Value = %v, want the injection", hit, pe.Value)
					}
					if stackGoid(pe.Stack) != caller && bytes.Contains(pe.Stack, []byte("parallel.helper")) {
						onHelper++
					}
					checkScratchBalanced(t)
				}
			})
		})
	}
	// The schedules must have killed helpers mid-region, not only callers.
	if onHelper == 0 {
		t.Errorf("no injected panic landed on a pool helper")
	}
	if !parallel.ScratchStats().Balanced() {
		t.Errorf("scratch pool imbalance after the schedules")
	}
}
