package parallel

import (
	"sync"
	"sync/atomic"

	"julienne/internal/chaos"
)

// This file is the scheduling core: the one fork-join implementation
// under For, Workers and, through them, every sequence primitive of the
// package.
//
// A region is a job of nChunks chunks claimed off one atomic counter.
// The calling goroutine is worker 0 and claims chunks like everyone
// else, so a region always finishes on its caller alone — helpers only
// make it finish sooner, and nested or concurrent callers can never
// wait on each other. At most Procs()-1 persistent helper goroutines
// take the remaining chunks. A helper that runs out of work looks at
// the publication slot helperPolls times before it parks, so a region
// that follows at once pays neither a goroutine start nor a futex
// wake; a parked helper is woken only by a region that wants it.
// Nothing is published at Procs() == 1 (the adapters run inline before
// they get here), so no helper is started, woken or left polling there.
//
// Panic containment, the chaos worker site and the fork counters live
// here and nowhere else.

// forkWork is the sequential cut-off: the work, in units of one visited
// edge or a few simple per-item operations (≈3–5 ns each), that one
// worker should have before a region is given another. A traversal
// below 2*forkWork runs inline on its caller; above it a region asks
// for min(Procs(), work/forkWork) workers. Set by measurement on the
// 2-vCPU dev box (EXPERIMENTS.md "Fork budget"): a forked region costs
// ≈2 µs with a helper polling and ≈10 µs more if one must be woken, so
// the smallest forked region is ≈30–40 µs of work. wbfs-grid's 4,550
// rounds all fall below it (time_s 0.129 → 0.071 s, within 2 % of its
// P=1 time); kcore-rmat straddles it and measured the same at
// 1024, 4096 and 16384 (0.082 / 0.081 / 0.083 s against the parent's
// 0.091); delta-rmat's 28 rounds are all far above it.
const forkWork = 4096

// An idle helper polls the slot helperPolls times (≈0.12 µs) before it
// parks: enough to catch the next of two back-to-back regions — the two
// passes of a Scan, the probe behind parallel.probe_fork_us — and no
// more. Staying hot for ≈30 µs (128 such bursts separated by
// runtime.Gosched) was measured and declined (EXPERIMENTS.md "Fork
// budget"): k-core's forks are ≈230 µs apart, so the helper had parked
// anyway, ∆-stepping's regions are hundreds of µs each, so a ≈10 µs wake
// is lost in them, wBFS on a grid never forks — no workload moved.
const helperPolls = 128

// A caller that has run out of chunks while a helper is still inside
// one polls for it joinPolls times (≈0.15 µs: the helper was between
// chunks) and then parks on the job's channel, which hands the P to
// whoever is runnable and, when the helper is done, hands the caller
// the helper's P. Polling longer is a trade measured and declined
// (EXPERIMENTS.md "Fork budget"): 8 µs of it halves a 20 µs loop
// (22 → 11 µs) but cost internal/serve 6 % of its throughput under two
// concurrent requests, whether the polling was bare, yielding, or
// reserved for regions with short chunks.
const joinPolls = 128

// WorkersFor returns how many workers a region doing the given amount
// of work (see forkWork) merits: 1 below the cut-off, so the region
// runs inline, and never more than Procs().
func WorkersFor(work int64) int {
	if work < 2*forkWork {
		return 1
	}
	return int(min(int64(Procs()), work/forkWork))
}

// job is one forked region. Jobs are recycled through jobPool, so a
// helper may hold a pointer to a job whose region is long over; the
// inside count is what makes that safe (see enter).
type job struct {
	body    func(worker, chunk int)
	nChunks int32
	workers int32 // participants wanted, the caller included

	next   atomic.Int32 // next unclaimed chunk
	joined atomic.Int32 // participants so far; the caller is worker 0
	// inside counts the helpers holding the job. The caller recycles
	// the job only after it has unpublished it and inside is back to 0.
	inside  atomic.Int32
	waiting atomic.Bool   // the caller is parked, or about to, on done
	done    chan struct{} // buffered 1: the last helper out wakes the caller
	pc      panicCatcher
}

var jobPool = sync.Pool{New: func() any { return &job{done: make(chan struct{}, 1)} }}

// pool is the helper pool every region shares.
var pool struct {
	// current is the publication slot: the one job that still wants
	// workers, or nil. A caller that finds it taken runs its region
	// alone rather than queue behind someone else's.
	current atomic.Pointer[job]

	started atomic.Int32 // helpers ever started; they never exit
	idle    atomic.Int32 // helpers outside any job: polling or parked
	parked  atomic.Int32 // helpers blocked on wake, or about to

	mu   sync.Mutex
	wake *sync.Cond // guarded by mu
}

func init() { pool.wake = sync.NewCond(&pool.mu) }

// forked, inlined and wakes are the fork budget (ForkStats).
var forked, inlined, wakes atomic.Int64

// ForkCounts is a snapshot of the fork budget: regions that went
// through the helper pool, regions that ran inline on their caller
// (below a grain or the cut-off, at Procs() == 1, or because the pool
// was busy with another caller's region), and parked helpers woken.
// The counters are process-wide: concurrent kernels see each other's.
type ForkCounts struct {
	Forked, Inline, Wakes int64
}

// Sub returns the counts accumulated since the earlier snapshot.
func (c ForkCounts) Sub(earlier ForkCounts) ForkCounts {
	return ForkCounts{c.Forked - earlier.Forked, c.Inline - earlier.Inline, c.Wakes - earlier.Wakes}
}

// ForkStats returns the cumulative fork budget.
func ForkStats() ForkCounts {
	return ForkCounts{Forked: forked.Load(), Inline: inlined.Load(), Wakes: wakes.Load()}
}

// IdleHelpers reports how many pool helpers exist and hold no job:
// goroutines that outlive every region by design. The leak checker
// discounts them; a helper stuck inside a job is not idle.
func IdleHelpers() int { return int(pool.idle.Load()) }

// inline is the prologue of every region an adapter runs on its caller
// alone: the chaos worker site and the budget counter. The adapters
// keep their own inline loops because a closure handed to run escapes,
// and the inline paths are pinned at zero allocations.
func inline() {
	inlined.Add(1)
	if chaos.Enabled {
		chaos.Point(chaos.SiteWorker)
	}
}

// run executes body(worker, chunk) once for every chunk in
// [0, nChunks) on the caller and up to workers-1 helpers, and returns
// when every chunk has finished. Worker indices are dense, below
// workers, and stable for one participant; the caller is worker 0.
// Every chunk runs even if another one panics; the first panic
// re-raises on the caller, as one *PanicError, after the join.
// The adapters call it only with nChunks and workers both at least 2.
func run(nChunks, workers int, body func(worker, chunk int)) {
	j := jobPool.Get().(*job)
	j.body, j.nChunks, j.workers = body, int32(nChunks), int32(workers)
	j.next.Store(0)
	j.joined.Store(1)
	if pool.current.CompareAndSwap(nil, j) {
		forked.Add(1)
		summon(workers - 1)
		j.work(0)
		j.unpublish()
		j.join()
	} else { // the pool is busy with someone else's region: go it alone
		inlined.Add(1)
		j.work(0)
	}
	pe := j.pc.first.Swap(nil)
	j.body = nil
	jobPool.Put(j)
	if pe != nil {
		panic(pe)
	}
}

// work claims and runs chunks until none are left.
func (j *job) work(worker int) {
	for {
		c := j.next.Add(1) - 1
		if c >= j.nChunks {
			return
		}
		if c == j.nChunks-1 {
			j.unpublish() // nothing left to hand out: free the slot early
		}
		j.chunk(worker, int(c))
	}
}

// chunk runs one chunk under the recover wrapper, so a panicking chunk
// stops neither its worker nor the region.
func (j *job) chunk(worker, c int) {
	defer j.pc.recoverPanic()
	if chaos.Enabled {
		chaos.Point(chaos.SiteWorker)
	}
	j.body(worker, c)
}

func (j *job) unpublish() { pool.current.CompareAndSwap(j, nil) }

// join waits, on the caller, until no helper holds the job: a few
// polls, then parked on done. A token left in done by a helper of an
// earlier region only costs one more trip round the loop.
func (j *job) join() {
	for polls := 1; j.inside.Load() != 0; polls++ {
		if polls%joinPolls == 0 {
			j.waiting.Store(true)
			if j.inside.Load() != 0 {
				<-j.done
			}
			j.waiting.Store(false)
		}
	}
}

// enter registers the calling helper with j and reports whether j is
// still published — only then may the helper touch the job: the
// caller's join, which runs after the unpublish, is sure to see the
// registration. A helper that loses the race leaves at once.
func (j *job) enter() bool {
	j.inside.Add(1)
	if pool.current.Load() == j {
		return true
	}
	j.leave()
	return false
}

// leave drops the helper's hold and wakes a caller parked in join.
func (j *job) leave() {
	if j.inside.Add(-1) == 0 && j.waiting.Load() {
		select {
		case j.done <- struct{}{}:
		default: // a token is already there; the caller rechecks inside
		}
	}
}

// summon makes sure helpers exist and wakes parked ones, as far as the
// polling ones do not already cover the region's wish. It reads racy
// counts: a miscount costs the region a helper, never its progress.
func summon(helpers int) {
	for n := pool.started.Load(); int(n) < helpers; n = pool.started.Load() {
		if pool.started.CompareAndSwap(n, n+1) {
			pool.idle.Add(1)
			go helper()
		}
	}
	parked := int(pool.parked.Load())
	n := min(helpers-(int(pool.idle.Load())-parked), parked)
	if n <= 0 {
		return
	}
	wakes.Add(int64(n))
	pool.mu.Lock()
	for ; n > 0; n-- {
		pool.wake.Signal()
	}
	pool.mu.Unlock()
}

// helper is the body of every pool goroutine: find a published job,
// take a worker index, help, leave, repeat. It calls user code only
// through job.chunk, which recovers.
func helper() {
	for {
		j := nextJob()
		pool.idle.Add(-1)
		if w := j.joined.Add(1) - 1; w < j.workers {
			if w == j.workers-1 {
				j.unpublish() // the region has all the workers it asked for
			}
			j.work(int(w))
		}
		j.leave()
		pool.idle.Add(1)
	}
}

// nextJob returns a job the helper has entered: it polls the slot
// helperPolls times, then parks until a region summons it and polls
// again.
func nextJob() *job {
	for {
		for polls := 0; polls < helperPolls; polls++ {
			if j := pool.current.Load(); j != nil && j.enter() {
				return j
			}
		}
		pool.mu.Lock()
		pool.parked.Add(1)
		if pool.current.Load() == nil {
			pool.wake.Wait()
		}
		pool.parked.Add(-1)
		pool.mu.Unlock()
	}
}
