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
	"slices"
	"strconv"
	"testing"
	"time"

	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
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

// forkingGraph is a graph on which a k-core run keeps reaching worker
// sites. Below the fork cut-off a round opens no parallel region at
// all, so testGraph's runs reach the worker site about once; on RMAT
// 2¹⁵ at P=2 the early rounds fork 18 regions of 8 chunks each, about
// 145 worker-site hits per run. Callers pin GOMAXPROCS to 2.
func forkingGraph(seed uint64) *graph.CSR {
	return gen.RMAT(1<<15, 8<<15, true, seed)
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
	defer parallel.SetProcs(parallel.SetProcs(2))
	g := forkingGraph(1)
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
// partial stats, and an oracle-correct re-run, for k-core, set cover
// and wBFS on a weighted grid (SiteRound fires inside NextBucket, so it
// reaches every kernel bucket.Loop drives).
func TestForcedCancellationAtRound(t *testing.T) {
	defer harness.LeakCheck(t)()
	g := testGraph(2)
	inst := gen.SetCover(600, 6000, 8, 2)
	grid := gen.UniformWeights(gen.Grid2D(20, 30), 1, 16, 7)
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
		{"setcover", "setcover",
			func(ctx context.Context, rec *obs.Recorder) (int64, error) {
				r := setcover.Approx(inst.Graph, inst.Sets, setcover.Options{Ctx: ctx, Recorder: rec})
				return r.Rounds, r.Err
			},
			func(t *testing.T) {
				clean := setcover.Approx(inst.Graph, inst.Sets, setcover.Options{})
				if clean.Err != nil {
					t.Fatalf("clean re-run errored: %v", clean.Err)
				}
				if err := setcover.Validate(inst.Graph, inst.Sets, clean.InCover); err != nil {
					t.Fatal(err)
				}
			}},
		{"wbfs", "sssp",
			func(ctx context.Context, rec *obs.Recorder) (int64, error) {
				r := sssp.WBFS(grid, 0, sssp.Options{Ctx: ctx, Recorder: rec})
				return r.Rounds, r.Err
			},
			func(t *testing.T) {
				clean := sssp.WBFS(grid, 0, sssp.Options{})
				if clean.Err != nil {
					t.Fatalf("clean re-run errored: %v", clean.Err)
				}
				if want := sssp.DijkstraHeap(grid, 0).Dist; !slices.Equal(clean.Dist, want) {
					t.Fatal("clean re-run distances differ from Dijkstra's")
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
	defer parallel.SetProcs(parallel.SetProcs(2))
	g := forkingGraph(4)
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
