package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// This file implements the cooperative-cancellation half of the failure
// semantics (DESIGN.md §9). Algorithms check a CancelCheck once per
// NextBucket round — never per edge — so cancellation costs one nil
// check per round when disabled and one select when armed. A canceled
// run returns a *Canceled error wrapping ErrCanceled and carries
// whatever partial-progress statistics the kernel had accumulated; the
// bucket structure and scratch arenas are left consistent, so a fresh
// run on the same graph is correct.

// ErrCanceled is the sentinel all cancellation errors wrap. Callers
// test with errors.Is(err, obs.ErrCanceled).
var ErrCanceled = errors.New("julienne: run canceled")

// Canceled reports a cooperatively-canceled run. It wraps both
// ErrCanceled (so errors.Is works) and the underlying cause
// (context.Canceled, context.DeadlineExceeded, or a custom context
// cause), and records how far the run got.
type Canceled struct {
	// Algo names the algorithm that was canceled ("kcore", "sssp", ...).
	Algo string
	// Rounds is the number of completed NextBucket (or peeling) rounds
	// before the cancellation was observed.
	Rounds int64
	// Cause is the reason the run stopped: the context's cause
	// (context.DeadlineExceeded for an expired deadline).
	Cause error
	// Tail holds the flight-recorder tail at cancellation time — the
	// last rounds the run completed before it was stopped, for
	// post-mortem inspection of where the budget went. Nil when the
	// run had no recorder attached.
	Tail []FlightRecord
}

func (c *Canceled) Error() string {
	return fmt.Sprintf("julienne: %s canceled after %d rounds: %v", c.Algo, c.Rounds, c.Cause)
}

// Unwrap exposes both the sentinel and the cause to errors.Is/As.
func (c *Canceled) Unwrap() []error { return []error{ErrCanceled, c.Cause} }

// WriteTail renders the captured flight-recorder tail as text (the
// same table panic dumps use); a no-op line when the tail is empty.
func (c *Canceled) WriteTail(w io.Writer) { WriteFlightText(w, c.Tail) }

// NewCanceled builds the cancellation error for one run, capturing the
// recorder's flight tail so the error itself carries the last rounds
// of partial progress. Valid on a nil recorder (Tail stays nil).
func (r *Recorder) NewCanceled(algo string, rounds int64, cause error) *Canceled {
	c := &Canceled{Algo: algo, Rounds: rounds, Cause: cause}
	if r != nil {
		c.Tail = r.FlightTail(flightTailDefault)
	}
	return c
}

// CancelCheck is the per-round cancellation probe. The zero value never
// cancels and its Stopped method is a nil-compare fast path, so
// algorithms embed the check unconditionally without a per-round cost
// when no context was supplied.
type CancelCheck struct {
	done <-chan struct{}
	ctx  context.Context
}

// NewCancelCheck builds a probe from an optional context; a nil ctx
// never cancels. A timeout is a context.WithTimeout.
func NewCancelCheck(ctx context.Context) CancelCheck {
	if ctx == nil {
		return CancelCheck{}
	}
	return CancelCheck{done: ctx.Done(), ctx: ctx}
}

// Stopped returns nil while the run may continue, or the context's
// cause once it is done. It is called once per round from the
// algorithm's driver loop (single goroutine).
func (c *CancelCheck) Stopped() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return context.Cause(c.ctx)
	default:
		return nil
	}
}
