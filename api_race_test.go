package julienne

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/parallel"
)

// TestConcurrentSharedGraphQueries pins the shared-read-path contract
// the serving layer (internal/serve) depends on: many goroutines may
// run point queries against ONE *CSR and ONE *Recorder concurrently —
// with metrics/flight scrapes interleaved — and every query must
// return exactly the single-threaded answer. Run under -race via
// `make race`; lazy CSR state (in-edge construction) and all Recorder
// paths are exercised across the concurrent callers.
func TestConcurrentSharedGraphQueries(t *testing.T) {
	g := gen.UniformWeights(Grid2D(24, 24), 1, 8, 7)
	rec := NewRecorder()

	srcs := []Vertex{0, 17, 255, 575}
	wantDelta := make(map[Vertex][]int64, len(srcs))
	wantWBFS := make(map[Vertex][]int64, len(srcs))
	for _, s := range srcs {
		wantDelta[s] = DeltaSteppingWithOptions(g, s, 4, SSSPOptions{}).Dist
		wantWBFS[s] = WBFSWithOptions(g, s, SSSPOptions{}).Dist
	}
	wantCore := KCoreWithOptions(g, KCoreOptions{}).Coreness

	sameInt64 := func(t *testing.T, what string, got, want []int64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: diverged at vertex %d: got %d want %d", what, i, got[i], want[i])
				return
			}
		}
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rec.WriteMetrics(io.Discard)
				_ = rec.WriteDebugJSON(io.Discard)
				_ = rec.FlightTail(32)
			}
		}
	}()

	var wg sync.WaitGroup
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for _, s := range srcs {
			wg.Add(2)
			go func(s Vertex) {
				defer wg.Done()
				res := DeltaSteppingWithOptions(g, s, 4, SSSPOptions{Recorder: rec})
				if res.Err != nil {
					t.Errorf("delta-stepping from %d: %v", s, res.Err)
					return
				}
				sameInt64(t, "delta-stepping", res.Dist, wantDelta[s])
			}(s)
			go func(s Vertex) {
				defer wg.Done()
				res := WBFSWithOptions(g, s, SSSPOptions{Recorder: rec})
				if res.Err != nil {
					t.Errorf("wbfs from %d: %v", s, res.Err)
					return
				}
				sameInt64(t, "wbfs", res.Dist, wantWBFS[s])
			}(s)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := KCoreWithOptions(g, KCoreOptions{Recorder: rec})
			if res.Err != nil {
				t.Errorf("kcore: %v", res.Err)
				return
			}
			for i := range wantCore {
				if res.Coreness[i] != wantCore[i] {
					t.Errorf("kcore: diverged at vertex %d: got %d want %d",
						i, res.Coreness[i], wantCore[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
}

// TestRunsDoNotShareScratch pins the run-level borrow: a kernel run
// takes its bucket structure, peelers or round destinations from a
// process-wide free list with whatever an earlier run left in them, so
// four goroutines run k-core and ∆-stepping side by side, alternating
// between two graphs of different n, and every so often a run whose
// deadline has already passed — stopped with its structure full —
// followed at once by a run on the other graph. Every completed answer,
// and k-core's rounds and bucket traffic, must equal a serial run's,
// and every borrow must be back when the runs are done. Run under
// -race via `make race`.
func TestRunsDoNotShareScratch(t *testing.T) {
	type input struct {
		g       *CSR
		coreRun KCoreResult
		dist    []int64
		src     Vertex
		delta   int64
	}
	rmat, grid := RMAT(1<<12, 1<<15, true, 5), Grid2D(48, 48)
	inputs := []*input{
		{g: HeavyWeights(rmat, 6), src: 0, delta: 32768},
		{g: LogWeights(grid, 7), src: 1000, delta: 4},
	}
	for _, in := range inputs {
		in.coreRun = KCoreWithOptions(in.g, KCoreOptions{})
		in.dist = DeltaSteppingWithOptions(in.g, in.src, in.delta, SSSPOptions{}).Dist
	}
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()

	const workers, iters = 4, 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				in := inputs[(w+i)%2]
				var ctx context.Context
				if i%6 == 5 {
					ctx = expired // the next iteration runs on the other graph
				}
				if (w+i/2)%2 == 0 {
					got := KCoreWithOptions(in.g, KCoreOptions{Ctx: ctx})
					if ctx != nil {
						if !errors.Is(got.Err, ErrCanceled) {
							t.Errorf("worker %d: k-core past its deadline returned Err = %v", w, got.Err)
						}
						continue
					}
					want := in.coreRun
					if got.Err != nil || !slices.Equal(got.Coreness, want.Coreness) ||
						got.Rounds != want.Rounds || got.BucketStats != want.BucketStats {
						t.Errorf("worker %d iteration %d: k-core on n=%d differs from the serial run (err %v, rounds %d/%d, traffic %+v/%+v)",
							w, i, in.g.NumVertices(), got.Err, got.Rounds, want.Rounds, got.BucketStats, want.BucketStats)
					}
					continue
				}
				got := DeltaSteppingWithOptions(in.g, in.src, in.delta, SSSPOptions{Ctx: ctx})
				if ctx != nil {
					if !errors.Is(got.Err, ErrCanceled) {
						t.Errorf("worker %d: ∆-stepping past its deadline returned Err = %v", w, got.Err)
					}
					continue
				}
				if got.Err != nil || !slices.Equal(got.Dist, in.dist) {
					t.Errorf("worker %d iteration %d: ∆-stepping on n=%d differs from the serial run (err %v)",
						w, i, in.g.NumVertices(), got.Err)
				}
			}
		}(w)
	}
	wg.Wait()
	if b := parallel.ScratchStats(); !b.Balanced() {
		t.Errorf("scratch borrowed %d times, returned %d", b.Gets, b.Puts)
	}
}

// TestKernelsIdenticalAcrossProcs pins what the scheduling core and the
// work-keyed cut-off may not change: at GOMAXPROCS 1, 2 and 4 — inline,
// one helper, several — the three benchmarked kernels return identical
// answers, and wBFS, whose rounds are set by the bucket semantics
// alone, also identical round counts and bucket traffic. (∆-stepping
// with ∆ > 1 relaxes within a bucket in schedule order, so its round
// count may differ by a few between P=1 and P>1; ssspBounds holds it,
// and wBFS, to the bounds the bucket semantics set, at every P and
// also on a road-like grid.) k-core's workers peel each level to its
// end in their own queues, so at every P it takes exactly one round
// per distinct coreness value (ρ, the Ligra baseline's rounds, is
// larger) and moves and extracts the same identifiers.
func TestKernelsIdenticalAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	n, m, side := 1<<14, 1<<18, 128
	if testing.Short() {
		n, m, side = 1<<12, 1<<16, 64
	}
	g := RMAT(n, m, true, 2017)
	heavy := HeavyWeights(g, 2018)
	light := LogWeights(g, 2019) // wBFS frontiers on both sides of the cut-off
	grid := Grid2D(side, side)   // high diameter: tiny frontiers, many rounds
	gridLight, gridHeavy := LogWeights(grid, 2020), HeavyWeights(grid, 2021)

	type outcome struct {
		core                   []uint32
		wbfs, delta            []int64
		gridWBFS, gridDelta    []int64
		coreRounds, wbfsRounds int64
		coreStats, wbfsStats   BucketStats
	}
	at := func(p int) outcome {
		runtime.GOMAXPROCS(p)
		k := KCoreWithOptions(g, KCoreOptions{})
		w := WBFSWithOptions(light, 0, SSSPOptions{})
		d := DeltaSteppingWithOptions(heavy, 0, 32768, SSSPOptions{})
		gw := WBFSWithOptions(gridLight, 0, SSSPOptions{})
		gd := DeltaSteppingWithOptions(gridHeavy, 0, 32768, SSSPOptions{})
		for _, r := range []struct {
			name  string
			res   SSSPResult
			delta int64
		}{{"wBFS", w, 1}, {"∆-stepping", d, 32768}, {"grid wBFS", gw, 1}, {"grid ∆-stepping", gd, 32768}} {
			if err := ssspBounds(r.res, r.delta); err != "" {
				t.Errorf("P=%d: %s %s", p, r.name, err)
			}
		}
		return outcome{k.Coreness, w.Dist, d.Dist, gw.Dist, gd.Dist, k.Rounds, w.Rounds, k.BucketStats, w.BucketStats}
	}
	want := at(1)
	distinct := map[uint32]bool{}
	for _, c := range want.core {
		distinct[c] = true
	}
	levels := int64(len(distinct))
	if want.coreRounds != levels {
		t.Errorf("P=1: k-core ran %d rounds, want one per distinct coreness value, %d", want.coreRounds, levels)
	}
	for _, p := range []int{2, 4} {
		got := at(p)
		if !slices.Equal(got.core, want.core) || !slices.Equal(got.wbfs, want.wbfs) || !slices.Equal(got.delta, want.delta) {
			t.Errorf("P=%d: kernel outputs differ from P=1", p)
		}
		if !slices.Equal(got.gridWBFS, want.gridWBFS) || !slices.Equal(got.gridDelta, want.gridDelta) {
			t.Errorf("P=%d: grid SSSP distances differ from P=1", p)
		}
		if got.coreRounds != levels {
			t.Errorf("P=%d: k-core ran %d rounds, want one per distinct coreness value, %d", p, got.coreRounds, levels)
		}
		if got.coreStats != want.coreStats {
			t.Errorf("P=%d: k-core bucket traffic %+v, P=1's %+v", p, got.coreStats, want.coreStats)
		}
		if got.wbfsRounds != want.wbfsRounds || got.wbfsStats != want.wbfsStats {
			t.Errorf("P=%d: wBFS ran %d rounds %+v, P=1 ran %d rounds %+v",
				p, got.wbfsRounds, got.wbfsStats, want.wbfsRounds, want.wbfsStats)
		}
	}
}

// ssspBounds checks the counts a bucketed SSSP run reports against what
// its answer implies, at any P: every round extracts exactly one bucket,
// every bucket ⌊d/∆⌋ that holds a reached vertex is extracted at least
// once, and every reached vertex but the source was relaxed at least
// once. It returns "" or what failed.
func ssspBounds(r SSSPResult, delta int64) string {
	buckets := map[int64]bool{}
	var reached int64
	for _, d := range r.Dist {
		if d != UnreachableDist {
			reached++
			buckets[d/delta] = true
		}
	}
	switch {
	case r.Rounds != r.BucketStats.BucketsReturned:
		return fmt.Sprintf("ran %d rounds over %d extracted buckets, want one bucket per round", r.Rounds, r.BucketStats.BucketsReturned)
	case r.Rounds < int64(len(buckets)):
		return fmt.Sprintf("ran %d rounds, fewer than the %d distinct buckets its distances occupy", r.Rounds, len(buckets))
	case r.Relaxations < reached-1:
		return fmt.Sprintf("made %d relaxations, fewer than the %d reached vertices other than the source", r.Relaxations, reached-1)
	}
	return ""
}
