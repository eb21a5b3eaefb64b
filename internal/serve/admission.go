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

// with runs fn while holding one slot; it is the only way to hold one,
// so a slot cannot outlive the call — fn panicking included. It waits
// for the slot until ctx is done or the server starts draining, and
// returns without calling fn when it gets none: ErrQueueFull when the
// wait queue is at capacity, ErrClosing when draining, or the
// context's error. The in-flight gauge follows the slot.
func (a *admission) with(ctx context.Context, fn func()) error {
	select {
	case <-a.closed:
		return ErrClosing
	default:
	}
	select {
	case a.tokens <- struct{}{}:
	default:
		if a.waiters.Add(1) > a.maxWait {
			a.waiters.Add(-1)
			return ErrQueueFull
		}
		start := a.rec.Clock()
		var err error
		select {
		case a.tokens <- struct{}{}:
			a.rec.ObserveSince(obs.HistServeQueueWaitNs, start)
		case <-ctx.Done():
			err = ctx.Err()
		case <-a.closed:
			err = ErrClosing
		}
		a.waiters.Add(-1)
		if err != nil {
			return err
		}
	}
	a.rec.SetGauge(obs.GaugeServeInflight, int64(a.inFlight()))
	defer func() {
		<-a.tokens
		a.rec.SetGauge(obs.GaugeServeInflight, int64(a.inFlight()))
	}()
	fn()
	return nil
}

// close moves the gate into the draining state: every waiting and
// future with fails with ErrClosing. In-flight holders keep their
// slots until their fn returns. Idempotent.
func (a *admission) close() {
	select {
	case <-a.closed:
	default:
		close(a.closed)
	}
}

// inFlight reports how many slots are currently held.
func (a *admission) inFlight() int { return len(a.tokens) }
