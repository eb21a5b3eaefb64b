package bench

import (
	"runtime"
	"slices"
	"time"

	"julienne/internal/harness"
	"julienne/internal/obs"
)

// samples is how many timed runs one entry gets unless its time budget
// runs out first (the nB = 2²⁰ ablation at over a second per run).
const samples = 20

// measure is the one timing method. It runs w once untimed (the
// warm-up: lazily built inputs, pools, arenas and the helper pool are
// in place before anything is timed), then takes up to `samples` timed
// runs with the recorder off, stopping early once they have used
// budget, with ReadMemStats around the whole loop for the allocation
// figures; then one instrumented run supplies rounds, the obs counters
// and the answer counters. GOMAXPROCS is the caller's (forEachProcs).
func measure(w Workload, procs int, budget time.Duration) Entry {
	run := func() { w.Run(nil) }
	run()
	runtime.GC()
	times := make([]time.Duration, 0, samples)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for spent := time.Duration(0); len(times) < samples && spent < budget; {
		d := harness.Time(run)
		times = append(times, d)
		spent += d
	}
	runtime.ReadMemStats(&after)

	rec := obs.NewRecorder()
	res := w.Run(rec)
	e := Entry{Artifact: w.Artifact, App: w.App, Impl: w.Impl, Graph: w.Graph, Procs: procs,
		N: res.N, M: res.M, Rounds: res.Rounds, Samples: len(times),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(len(times)),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(len(times)),
		Counters:    rec.Counters(),
	}
	slices.Sort(times)
	e.NsFast, e.NsMedian, e.NsIQR = int64(fastDecileMean(times)), int64(median(times)), int64(quartileSpread(times))
	if res.Answer != nil {
		e.Answer = res.Answer()
	}
	if forked, ok := e.Counters[obs.CtrParallelForked.Name()]; ok && res.Rounds > 0 {
		perRound := float64(forked) / float64(res.Rounds)
		e.ForksPerRound = &perRound
	}
	return e
}

// The statistics of benchmark/stats.go, re-implemented because the
// gated benchmark reaches the system through its facade only. Each
// takes samples sorted ascending, at least one.

// fastDecileMean is the mean of the smallest ⌈n/10⌉ samples.
func fastDecileMean(sorted []time.Duration) time.Duration {
	k := (len(sorted) + 9) / 10
	var sum time.Duration
	for _, d := range sorted[:k] {
		sum += d
	}
	return sum / time.Duration(k)
}

func median(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartileSpread is the distance between the nearest-rank first and
// third quartiles: the spread a difference between two runs has to
// exceed before it means anything.
func quartileSpread(sorted []time.Duration) time.Duration {
	n := len(sorted)
	return sorted[(3*n+3)/4-1] - sorted[(n+3)/4-1]
}

// hostProbeMs times a fixed piece of memory-bound work that no change
// to the system moves: a scatter-add of 2²² pseudo-random targets
// (16 MiB, well past the caches) into 2¹⁷ counters, the shape of a
// kernel's edge loop, and returns the milliseconds of the fastest of
// five sweeps. benchmark/NOISE.md documents the slow spells it shows.
func hostProbeMs() float64 {
	tgt, acc := make([]uint32, 1<<22), make([]uint32, 1<<17)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range tgt {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tgt[i] = uint32(x % uint64(len(acc)))
	}
	best := time.Duration(1 << 62)
	for s := 0; s < 5; s++ {
		best = min(best, harness.Time(func() {
			for _, t := range tgt {
				acc[t]++
			}
		}))
	}
	return float64(best.Microseconds()) / 1000
}
