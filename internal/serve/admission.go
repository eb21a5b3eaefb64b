package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"julienne/internal/obs"
)

// Typed admission verdicts. The HTTP layer's one table (serve.go's
// refusals) maps ErrQueueFull to 429 and ErrClosing to 503; both carry
// Retry-After so well-behaved clients back off instead of hammering a
// saturated server.
var (
	// ErrQueueFull reports that the bounded admission queue is at
	// capacity: the server is saturated and taking on the request
	// would only grow latency for everyone already queued.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosing reports that the server is draining for shutdown and
	// accepts no new queries.
	ErrClosing = errors.New("serve: server closing")
)

// admission is the bounded-concurrency gate in front of the query
// handlers: at most maxInFlight queries execute at once, at most
// maxQueued more wait for a slot, and everything beyond that is
// rejected immediately with ErrQueueFull. Rejecting at the door keeps
// the tail latency of admitted queries bounded — an unbounded queue
// converts overload into unbounded latency instead of fast feedback.
type admission struct {
	tokens  chan struct{} // semaphore: buffered to maxInFlight
	waiters atomic.Int64  // requests currently waiting for a token
	maxWait int64
	closed  chan struct{} // closed when the server starts draining
	rec     *obs.Recorder
}

func newAdmission(maxInFlight, maxQueued int, rec *obs.Recorder) *admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueued < 0 {
		maxQueued = 0
	}
	return &admission{
		tokens:  make(chan struct{}, maxInFlight),
		maxWait: int64(maxQueued),
		closed:  make(chan struct{}),
		rec:     rec,
	}
}

// acquire blocks until a slot is free, the context is done, or the
// server starts draining. It returns nil on success (the caller must
// release), ErrQueueFull when the wait queue is at capacity,
// ErrClosing when draining, or the context's error.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case <-a.closed:
		return ErrClosing
	default:
	}
	select {
	case a.tokens <- struct{}{}:
		return nil
	default:
	}
	if a.waiters.Add(1) > a.maxWait {
		a.waiters.Add(-1)
		return ErrQueueFull
	}
	defer a.waiters.Add(-1)
	start := a.rec.Clock()
	select {
	case a.tokens <- struct{}{}:
		a.rec.ObserveSince(obs.HistServeQueueWaitNs, start)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-a.closed:
		return ErrClosing
	}
}

// release returns the caller's slot.
func (a *admission) release() { <-a.tokens }

// close moves the gate into the draining state: every current and
// future acquire fails with ErrClosing. In-flight holders keep their
// slots until they release. Idempotent.
func (a *admission) close() {
	select {
	case <-a.closed:
	default:
		close(a.closed)
	}
}

// inFlight reports how many slots are currently held.
func (a *admission) inFlight() int { return len(a.tokens) }
