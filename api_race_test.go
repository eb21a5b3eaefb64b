package julienne

import (
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentSharedGraphQueries pins the shared-read-path contract
// the serving layer (internal/serve) depends on: many goroutines may
// run point queries against ONE *CSR and ONE *Recorder concurrently —
// with metrics/flight scrapes interleaved — and every query must
// return exactly the single-threaded answer. Run under -race via
// `make race`; lazy CSR state (in-edge construction) and all Recorder
// paths are exercised across the concurrent callers.
func TestConcurrentSharedGraphQueries(t *testing.T) {
	g := UniformWeights(Grid2D(24, 24), 1, 8, 7)
	rec := NewRecorder()

	srcs := []Vertex{0, 17, 255, 575}
	wantDelta := make(map[Vertex][]int64, len(srcs))
	wantWBFS := make(map[Vertex][]int64, len(srcs))
	for _, s := range srcs {
		wantDelta[s] = DeltaStepping(g, s, 4)
		wantWBFS[s] = WBFS(g, s)
	}
	wantCore := KCore(g)

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

// TestKernelsIdenticalAcrossProcs pins what the scheduling core and the
// work-keyed cut-off may not change: at GOMAXPROCS 1, 2 and 4 — inline,
// one helper, several — the three benchmarked kernels return identical
// answers, and k-core and wBFS, whose rounds are set by the bucket
// semantics alone, also identical round counts and bucket traffic.
// (∆-stepping with ∆ > 1 relaxes within a bucket in schedule order, so
// its round count may differ by a few between P=1 and P>1.)
func TestKernelsIdenticalAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	n, m := 1<<14, 1<<18
	if testing.Short() {
		n, m = 1<<12, 1<<16
	}
	g := RMAT(n, m, true, 2017)
	heavy := HeavyWeights(g, 2018)
	light := LogWeights(g, 2019) // wBFS frontiers on both sides of the cut-off

	type outcome struct {
		core                   []uint32
		wbfs, delta            []int64
		coreRounds, wbfsRounds int64
		coreStats, wbfsStats   BucketStats
	}
	at := func(p int) outcome {
		runtime.GOMAXPROCS(p)
		k := KCoreWithOptions(g, KCoreOptions{})
		w := WBFSWithOptions(light, 0, SSSPOptions{})
		d := DeltaSteppingWithOptions(heavy, 0, 32768, SSSPOptions{})
		return outcome{k.Coreness, w.Dist, d.Dist, k.Rounds, w.Rounds, k.BucketStats, w.BucketStats}
	}
	want := at(1)
	for _, p := range []int{2, 4} {
		got := at(p)
		if !slices.Equal(got.core, want.core) || !slices.Equal(got.wbfs, want.wbfs) || !slices.Equal(got.delta, want.delta) {
			t.Errorf("P=%d: kernel outputs differ from P=1", p)
		}
		if got.coreRounds != want.coreRounds || got.coreStats != want.coreStats {
			t.Errorf("P=%d: k-core ran %d rounds %+v, P=1 ran %d rounds %+v",
				p, got.coreRounds, got.coreStats, want.coreRounds, want.coreStats)
		}
		if got.wbfsRounds != want.wbfsRounds || got.wbfsStats != want.wbfsStats {
			t.Errorf("P=%d: wBFS ran %d rounds %+v, P=1 ran %d rounds %+v",
				p, got.wbfsRounds, got.wbfsStats, want.wbfsRounds, want.wbfsStats)
		}
	}
}
