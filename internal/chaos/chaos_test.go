//go:build julienne_chaos

package chaos_test

// The chaos proptest family (DESIGN.md §9): seeded, schedule-driven
// injections fire mid-run — a panic inside a parallel worker, a delay
// at a round boundary, a forced cancellation at round k — and after
// every run the suite asserts the full failure-semantics contract:
//
//   1. no goroutine leaks (harness.LeakCheck);
//   2. the scratch pool is balanced (parallel.ScratchStats);
//   3. with the julienne_debug tag, the bucket structure's invariant
//      checks stay armed throughout (they run inside NextBucket);
//   4. an immediate re-run on the same graph, injections disarmed, is
//      oracle-correct — a contained failure leaves no poisoned state.
//
// Build-gated behind julienne_chaos so the injection points (and these
// tests) cost nothing in production binaries.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/chaos"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/harness"
	"julienne/internal/obs"
	"julienne/internal/parallel"
	"julienne/internal/rng"
)

func testGraph(seed uint64) *graph.CSR {
	n := 2000
	if testing.Short() {
		n = 600
	}
	return gen.RMAT(n, 8*n, true, seed)
}

// flightDumpRecorder arms the always-on flight recorder for one chaos
// run and dumps its tail if the test fails, so a failed invariant
// check ships a post-mortem of the rounds that led up to it.
func flightDumpRecorder(t *testing.T) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		var buf bytes.Buffer
		obs.WriteFlightText(&buf, rec.FlightTail(16))
		t.Logf("chaos post-mortem:\n%s", buf.String())
	})
	return rec
}

func checkInvariants(t *testing.T) {
	t.Helper()
	if b := parallel.ScratchStats(); !b.Balanced() {
		t.Errorf("scratch pool imbalance: %d gets, %d puts", b.Gets, b.Puts)
	}
}

// expectPanicError runs f and returns the *parallel.PanicError it
// re-raises, or nil if f returned cleanly.
func expectPanicError(t *testing.T, f func()) (pe *parallel.PanicError) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			pe, ok = v.(*parallel.PanicError)
			if !ok {
				t.Fatalf("panic value is %T (%v), want *parallel.PanicError", v, v)
			}
		}
	}()
	f()
	return nil
}

func corenessEqual(t *testing.T, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("coreness length %d, want %d", len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("coreness[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// TestInjectedWorkerPanic fires a panic inside a parallel worker in the
// middle of a k-core run and asserts the whole contract.
func TestInjectedWorkerPanic(t *testing.T) {
	defer harness.LeakCheck(t)()
	g := testGraph(1)
	want := kcore.CorenessBZ(g)
	rec := flightDumpRecorder(t)
	for _, hit := range []int64{1, 7, 40} {
		chaos.Arm(chaos.Plan{PanicAtWorker: hit})
		pe := expectPanicError(t, func() { kcore.Coreness(g, kcore.Options{Recorder: rec}) })
		chaos.Disarm()
		if pe == nil {
			t.Fatalf("hit %d: injected panic did not surface", hit)
		}
		inj, ok := pe.Value.(chaos.Injected)
		if !ok {
			t.Fatalf("hit %d: PanicError.Value = %T (%v), want chaos.Injected", hit, pe.Value, pe.Value)
		}
		if inj.Site != chaos.SiteWorker || inj.Hit != hit {
			t.Errorf("hit %d: injected at %v hit %d", hit, inj.Site, inj.Hit)
		}
		var asInj chaos.Injected
		if !errors.As(pe, &asInj) {
			t.Errorf("hit %d: errors.As(pe, *chaos.Injected) = false (Unwrap broken)", hit)
		}
		checkInvariants(t)
		// Contained failure leaves no poisoned state: an immediate
		// re-run on the same graph is oracle-correct.
		clean := kcore.Coreness(g, kcore.Options{})
		if clean.Err != nil {
			t.Fatalf("hit %d: clean re-run errored: %v", hit, clean.Err)
		}
		corenessEqual(t, clean.Coreness, want)
		checkInvariants(t)
	}
}

// TestForcedCancellationAtRound forces a context cancellation at round
// k from inside the round boundary and asserts the typed error, the
// partial stats, and an oracle-correct re-run, for k-core and for
// weighted set cover (SiteRound fires inside NextBucket, so it reaches
// every kernel bucket.Loop drives).
func TestForcedCancellationAtRound(t *testing.T) {
	defer harness.LeakCheck(t)()
	g := testGraph(2)
	inst := gen.SetCover(600, 6000, 8, 2)
	costs := make([]float64, inst.Sets)
	for s := range costs {
		costs[s] = float64(1 + s%7)
	}
	weighted := func(o setcover.Options) setcover.WeightedResult {
		return setcover.ApproxWeighted(inst.Graph, inst.Sets, costs, o)
	}
	rows := []struct {
		name, algo string
		// run is the kernel under ctx and rec; it returns its rounds and
		// error.
		run func(ctx context.Context, rec *obs.Recorder) (int64, error)
		// checkRerun asserts that an immediate clean run is correct.
		checkRerun func(t *testing.T)
	}{
		{"kcore", "kcore",
			func(ctx context.Context, rec *obs.Recorder) (int64, error) {
				r := kcore.Coreness(g, kcore.Options{Ctx: ctx, Recorder: rec})
				return r.Rounds, r.Err
			},
			func(t *testing.T) {
				clean := kcore.Coreness(g, kcore.Options{})
				if clean.Err != nil {
					t.Fatalf("clean re-run errored: %v", clean.Err)
				}
				corenessEqual(t, clean.Coreness, kcore.CorenessBZ(g))
			}},
		{"weighted-setcover", "setcover",
			func(ctx context.Context, rec *obs.Recorder) (int64, error) {
				r := weighted(setcover.Options{Ctx: ctx, Recorder: rec})
				return r.Rounds, r.Err
			},
			func(t *testing.T) {
				clean := weighted(setcover.Options{})
				if clean.Err != nil {
					t.Fatalf("clean re-run errored: %v", clean.Err)
				}
				if err := setcover.Validate(inst.Graph, inst.Sets, clean.InCover); err != nil {
					t.Fatal(err)
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			full, _ := row.run(nil, nil)
			if full < 3 {
				t.Fatalf("test input runs in %d rounds; need >= 3", full)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rec := flightDumpRecorder(t)
			chaos.Arm(chaos.Plan{CancelAtRound: 2, Cancel: cancel})
			_, err := row.run(ctx, rec)
			chaos.Disarm()
			if err == nil {
				t.Fatal("canceled run returned nil Err")
			}
			if !errors.Is(err, obs.ErrCanceled) {
				t.Errorf("errors.Is(Err, ErrCanceled) = false: %v", err)
			}
			var c *obs.Canceled
			if !errors.As(err, &c) {
				t.Fatalf("Err is %T, want *obs.Canceled", err)
			}
			if c.Algo != row.algo {
				t.Errorf("Canceled.Algo = %q, want %s", c.Algo, row.algo)
			}
			if c.Rounds < 1 || c.Rounds >= full {
				t.Errorf("Canceled.Rounds = %d, want partial progress in [1, %d)", c.Rounds, full)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cause not surfaced: errors.Is(Err, context.Canceled) = false")
			}
			if len(c.Tail) == 0 || int64(len(c.Tail)) > c.Rounds {
				t.Errorf("Canceled.Tail has %d records for %d rounds; want a non-empty tail", len(c.Tail), c.Rounds)
			} else if last := c.Tail[len(c.Tail)-1]; last.Algo != row.algo || last.Round != c.Rounds {
				t.Errorf("Canceled.Tail ends at %s round %d, want %s round %d", last.Algo, last.Round, row.algo, c.Rounds)
			}
			checkInvariants(t)
			row.checkRerun(t)
		})
	}
}

// TestDelayAtRoundTripsDeadline injects a delay at a round boundary so
// a short deadline expires mid-run; the run must stop with the
// DeadlineExceeded cause, and wBFS must be re-runnable.
func TestDelayAtRoundTripsDeadline(t *testing.T) {
	defer harness.LeakCheck(t)()
	g := gen.UniformWeights(testGraph(3), 1, 16, 3)
	want := sssp.DijkstraHeap(g, 0)
	rec := flightDumpRecorder(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	chaos.Arm(chaos.Plan{DelayAtRound: 2, Delay: 50 * time.Millisecond})
	res := sssp.WBFS(g, 0, sssp.Options{Recorder: rec, Ctx: ctx})
	chaos.Disarm()
	if res.Err == nil {
		t.Fatal("deadline run returned nil Err")
	}
	if !errors.Is(res.Err, obs.ErrCanceled) || !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Errorf("Err = %v, want ErrCanceled wrapping DeadlineExceeded", res.Err)
	}
	checkInvariants(t)
	clean := sssp.WBFS(g, 0, sssp.Options{})
	if clean.Err != nil {
		t.Fatalf("clean re-run errored: %v", clean.Err)
	}
	for v := range clean.Dist {
		if clean.Dist[v] != want.Dist[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, clean.Dist[v], want.Dist[v])
		}
	}
}

// TestForcedCancellationMidFusedRound forces a cancellation at a fused
// round boundary of a bucket-fusion wBFS run on a weighted grid (the
// large-diameter family fusion exists for) and asserts the failure
// contract holds with the fused machinery engaged: typed error with
// partial progress, balanced scratch pool, no goroutine leaks, and
// immediate fused and unfused re-runs that are oracle-correct — no
// active span, undrained lazy buffer, or leaked scratch slab survives
// the cancellation.
func TestForcedCancellationMidFusedRound(t *testing.T) {
	defer harness.LeakCheck(t)()
	rows, cols := 40, 50
	if testing.Short() {
		rows, cols = 20, 30
	}
	g := gen.UniformWeights(gen.Grid2D(rows, cols), 1, 16, 7)
	want := sssp.DijkstraHeap(g, 0)
	fused := sssp.Options{Fusion: bucket.Fusion{MaxFrontier: 64}}
	full := sssp.WBFS(g, 0, fused)
	if full.Err != nil || full.Rounds < 3 {
		t.Fatalf("fused wBFS baseline: err=%v rounds=%d; need a clean run of >= 3 rounds",
			full.Err, full.Rounds)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := flightDumpRecorder(t)
	opt := fused
	opt.Ctx = ctx
	opt.Recorder = rec
	chaos.Arm(chaos.Plan{CancelAtRound: 2, Cancel: cancel})
	res := sssp.WBFS(g, 0, opt)
	chaos.Disarm()
	if res.Err == nil {
		t.Fatal("canceled fused run returned nil Err")
	}
	var c *obs.Canceled
	if !errors.As(res.Err, &c) || !errors.Is(res.Err, obs.ErrCanceled) {
		t.Fatalf("Err = %v (%T), want *obs.Canceled wrapping ErrCanceled", res.Err, res.Err)
	}
	if c.Rounds < 1 || c.Rounds >= full.Rounds {
		t.Errorf("Canceled.Rounds = %d, want partial progress in [1, %d)", c.Rounds, full.Rounds)
	}
	checkInvariants(t)
	checkCleanReruns(t, want.Dist, func(o sssp.Options) sssp.Result { return sssp.WBFS(g, 0, o) }, fused, sssp.Options{})
}

// checkCleanReruns asserts that immediate re-runs under each option set
// complete and are oracle-correct, and that they leave the scratch pool
// balanced: a contained cancellation poisons nothing.
func checkCleanReruns(t *testing.T, want []int64, run func(sssp.Options) sssp.Result, opts ...sssp.Options) {
	t.Helper()
	for _, o := range opts {
		clean := run(o)
		if clean.Err != nil {
			t.Fatalf("clean re-run errored: %v", clean.Err)
		}
		for v := range clean.Dist {
			if clean.Dist[v] != want[v] {
				t.Fatalf("dist[%d] = %d, want %d", v, clean.Dist[v], want[v])
			}
		}
	}
	checkInvariants(t)
}

// TestCancellationInsideDrainedFusedSegment cancels a fused ∆-stepping
// run from inside a wave, during a segment whose relaxations land back
// inside the fused span. The wave driver must notice at the
// drained-segment check — the lazy drain comes back non-empty and is
// abandoned — rather than at the next wave boundary, so the run stops
// after exactly that round; the abandoned span and lazy buffer must not
// poison the re-runs.
func TestCancellationInsideDrainedFusedSegment(t *testing.T) {
	defer harness.LeakCheck(t)()
	rows, cols := 40, 50
	if testing.Short() {
		rows, cols = 20, 30
	}
	g := gen.UniformWeights(gen.Grid2D(rows, cols), 1, 16, 7)
	const delta = 4 // a fused span covers many annuli; most edges land inside it
	want := sssp.DijkstraHeap(g, 0)
	fused := sssp.Options{Fusion: bucket.Fusion{MaxFrontier: 64}}
	run := func(o sssp.Options) sssp.Result { return sssp.DeltaStepping(g, 0, delta, o) }

	// Locate a drained segment in a clean run. Every round is one
	// segment and reports its wave's first bucket id, so a second round
	// under the same id is a segment DrainLazy handed back.
	probe := fused
	probe.Recorder = obs.NewRecorder()
	var rounds []obs.RoundMetrics
	probe.Recorder.OnRound(func(m obs.RoundMetrics) { rounds = append(rounds, m) })
	full := run(probe)
	var cancelAt int64
	for i := 1; i < len(rounds) && cancelAt == 0; i++ {
		if rounds[i].Bucket == rounds[i-1].Bucket {
			cancelAt = rounds[i-1].Round
		}
	}
	if full.Err != nil || cancelAt == 0 {
		t.Fatalf("fused baseline: err=%v, %d rounds, no wave with a drained segment", full.Err, full.Rounds)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := fused
	opt.Ctx = ctx
	opt.Recorder = flightDumpRecorder(t)
	opt.Recorder.OnRound(func(m obs.RoundMetrics) {
		if m.Round == cancelAt {
			cancel()
		}
	})
	res := run(opt)
	var c *obs.Canceled
	if !errors.As(res.Err, &c) || !errors.Is(res.Err, obs.ErrCanceled) {
		t.Fatalf("Err = %v (%T), want *obs.Canceled wrapping ErrCanceled", res.Err, res.Err)
	}
	if c.Rounds != cancelAt || res.Rounds != cancelAt {
		t.Errorf("stopped after round %d (Canceled.Rounds = %d), want %d: the cancellation was not seen at the drained-segment check",
			res.Rounds, c.Rounds, cancelAt)
	}
	checkInvariants(t)
	checkCleanReruns(t, want.Dist, run, fused, sssp.Options{})
}

// TestSeededSweep is the randomized proptest family: each seed derives
// an injection plan (site, mode, hit count) from rng.Hash64 and fires
// it against a k-core run, then asserts the contract. The sweep size
// defaults small; the nightly job raises it via JULIENNE_CHAOS_SEEDS.
func TestSeededSweep(t *testing.T) {
	defer harness.LeakCheck(t)()
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	if s := os.Getenv("JULIENNE_CHAOS_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("JULIENNE_CHAOS_SEEDS=%q: %v", s, err)
		}
		seeds = v
	}
	g := testGraph(4)
	want := kcore.CorenessBZ(g)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(strconv.Itoa(seed), func(t *testing.T) {
			rec := flightDumpRecorder(t)
			h := rng.Hash64(uint64(seed) + 0xc4a05)
			mode := h % 3
			hit := int64(1 + (h>>8)%24)
			round := int64(1 + (h>>32)%3)
			switch mode {
			case 0: // worker panic
				chaos.Arm(chaos.Plan{PanicAtWorker: hit})
				pe := expectPanicError(t, func() { kcore.Coreness(g, kcore.Options{Recorder: rec}) })
				chaos.Disarm()
				if pe == nil {
					t.Fatalf("seed %d: panic at worker hit %d did not surface", seed, hit)
				}
			case 1: // forced cancellation at round k
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				chaos.Arm(chaos.Plan{CancelAtRound: round, Cancel: cancel})
				res := kcore.Coreness(g, kcore.Options{Ctx: ctx, Recorder: rec})
				chaos.Disarm()
				if res.Err == nil || !errors.Is(res.Err, obs.ErrCanceled) {
					t.Fatalf("seed %d: cancel at round %d: Err = %v", seed, round, res.Err)
				}
			case 2: // delay at a round boundary + timeout
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
				defer cancel()
				chaos.Arm(chaos.Plan{DelayAtRound: round, Delay: 20 * time.Millisecond})
				res := kcore.Coreness(g, kcore.Options{Ctx: ctx, Recorder: rec})
				chaos.Disarm()
				if res.Err == nil || !errors.Is(res.Err, context.DeadlineExceeded) {
					t.Fatalf("seed %d: delay at round %d: Err = %v", seed, round, res.Err)
				}
			}
			checkInvariants(t)
			clean := kcore.Coreness(g, kcore.Options{})
			if clean.Err != nil {
				t.Fatalf("seed %d: clean re-run errored: %v", seed, clean.Err)
			}
			corenessEqual(t, clean.Coreness, want)
		})
	}
}

// TestDisarmedPointsAreInert pins that an armed-then-disarmed process
// runs injections-free (the Arm state is global; tests must not bleed).
func TestDisarmedPointsAreInert(t *testing.T) {
	chaos.Arm(chaos.Plan{PanicAtWorker: 1})
	chaos.Disarm()
	g := testGraph(5)
	res := kcore.Coreness(g, kcore.Options{})
	if res.Err != nil {
		t.Fatalf("disarmed run errored: %v", res.Err)
	}
	checkInvariants(t)
}
