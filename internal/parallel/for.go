// Package parallel provides the fork-join primitives that every other
// package in this repository is built on: parallel loops, reductions,
// prefix sums (scan), filtering/packing, histograms, and the atomic
// writeMin primitive from the paper's preliminaries (§2).
//
// The model is the classic work-depth model: a parallel loop over n
// items splits the index space into contiguous blocks of at least
// `grain` items (at most 4*GOMAXPROCS of them) and hands the blocks to
// the one scheduling core in run.go — the caller claims blocks off an
// atomic counter alongside at most GOMAXPROCS-1 persistent helper
// goroutines, and returns when the last block is done. There is no work
// stealing between regions; within one, the shared counter balances
// blocks of unequal cost. Blocked decomposition is also how the paper's
// own practical implementation of updateBuckets works (§3.3 processes
// blocks of M=2048 sequentially and combines them with a scan).
//
// All primitives degrade to purely sequential execution when the input
// is below the grain or GOMAXPROCS is 1, so single-threaded baselines
// pay no synchronization cost and never touch the helper pool.
package parallel

import "runtime"

// DefaultGrain is the block size used when a caller passes grain <= 0.
// 1024 items of a few ns each is a block of several µs, the scale of
// what a forked region costs on top of its work: measured 2–3 µs per
// region with a helper polling (6 µs with a goroutine per block before
// the shared core) and ≈10 µs when the second core has to be woken.
const DefaultGrain = 1024

// Procs reports the current parallelism level (GOMAXPROCS).
func Procs() int { return runtime.GOMAXPROCS(0) }

// SetProcs sets GOMAXPROCS and returns the previous value. The experiment
// harness uses it to sweep thread counts; library code never calls it.
func SetProcs(p int) int { return runtime.GOMAXPROCS(p) }

// blocks is the one block decomposition every primitive uses: n items
// split into nb contiguous blocks of size items (the last may be
// short), each of at least grain items, at most 4*p of them so that
// block-to-block imbalance smooths out while the claim counter stays
// cold. nb == 1 means the region runs inline, which is always the case
// at p == 1.
func blocks(n, grain int) (nb, size, p int) {
	p = Procs()
	if grain <= 0 {
		grain = DefaultGrain
	}
	if p == 1 || n < 2*grain {
		return 1, n, p
	}
	nb = min(n/grain, 4*p)
	size = (n + nb - 1) / nb
	return (n + size - 1) / size, size, p
}

// For runs body(i) for every i in [0, n) in parallel with the given grain.
// The sequential case returns before the block-adapter closure literal is
// evaluated, so single-threaded callers pay no allocation for it.
func For(n, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	nb, size, p := blocks(n, grain)
	if nb == 1 {
		defer rewrapPanic()
		inline()
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	run(nb, p, func(_, c int) {
		for i, hi := c*size, min((c+1)*size, n); i < hi; i++ {
			body(i)
		}
	})
}

// Workers runs body(worker, lo, hi) over contiguous blocks covering
// [0, n) on at most `workers` participants (WorkersFor sizes that from
// the region's work, not from n). It passes a stable worker index below
// `workers`, which callers use to give each participant a private
// buffer; one worker may be handed several blocks, in no particular
// order. A panic in body is contained: every block finishes, and a
// single wrapped *PanicError re-raises on the caller (see panics.go for
// the contract).
func Workers(n, workers int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = min(workers, n)
	if workers <= 1 {
		defer rewrapPanic()
		inline()
		body(0, 0, n)
		return
	}
	size := (n + 4*workers - 1) / (4 * workers)
	run((n+size-1)/size, workers, func(w, c int) { body(w, c*size, min((c+1)*size, n)) })
}
