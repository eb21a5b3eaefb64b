package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"julienne/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitQueueFullLeavesManagerBalanced pins the ErrQueueFull early
// return audited by julvet/semabalance: a rejected submission must not
// be remembered, must not consume queue capacity, and must leave the
// pool able to accept work once the queue drains.
func TestSubmitQueueFullLeavesManagerBalanced(t *testing.T) {
	m := newJobManager(1, 1, 10, obs.NewRecorder())
	defer m.shutdown()

	started := make(chan struct{})
	release := make(chan struct{})
	busy, err := m.submit("busy", func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "busy-done", nil
	})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	<-started // the single worker is now occupied

	queued, err := m.submit("queued", func(ctx context.Context) (any, error) {
		return "queued-done", nil
	})
	if err != nil {
		t.Fatalf("second submit (fills the queue): %v", err)
	}

	rejected, err := m.submit("overflow", func(ctx context.Context) (any, error) {
		t.Error("rejected job must never run")
		return nil, nil
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if rejected != nil {
		t.Fatalf("overflow submit returned a job: %+v", rejected)
	}

	// The early return must not have indexed a phantom job.
	m.mu.Lock()
	kept := len(m.jobs)
	m.mu.Unlock()
	if kept != 2 {
		t.Fatalf("job index holds %d entries after a rejected submit, want 2", kept)
	}

	// Drain: the queued job runs once the worker frees up, and the
	// manager accepts new work again — the rejection leaked nothing.
	close(release)
	for _, j := range []*job{busy, queued} {
		waitFor(t, j.kind+" to finish", func() bool {
			info, ok := m.lookup(j.id)
			return ok && info.Status == jobDone
		})
	}
	var after *job
	waitFor(t, "a post-drain submit to be accepted", func() bool {
		j, err := m.submit("after", func(ctx context.Context) (any, error) {
			return "after-done", nil
		})
		if err != nil {
			return false
		}
		after = j
		return true
	})
	waitFor(t, "the post-drain job to finish", func() bool {
		info, ok := m.lookup(after.id)
		return ok && info.Status == jobDone
	})

	m.shutdown()
	if _, err := m.submit("late", nil); !errors.Is(err, ErrClosing) {
		t.Fatalf("submit after shutdown: err = %v, want ErrClosing", err)
	}
}

// TestCoalescerFollowerCancelDoesNotPoisonFlight pins the follower
// cancellation path audited by julvet/ctxguard: a follower whose
// context expires while waiting gets ctx.Err(), while the leader's
// computation still completes, caches, and leaves no inflight entry.
func TestCoalescerFollowerCancelDoesNotPoisonFlight(t *testing.T) {
	c := newCoalescer(4, obs.NewRecorder())
	key := ssspKey{src: 7, delta: 16}

	computing := make(chan struct{})
	release := make(chan struct{})
	type leaderResult struct {
		val       *ssspVal
		cached    bool
		coalesced bool
		err       error
	}
	leaderDone := make(chan leaderResult, 1)
	go func() {
		val, cached, coalesced, err := c.do(context.Background(), key, func() *ssspVal {
			close(computing)
			<-release
			return &ssspVal{dist: []int64{42}, rounds: 3}
		})
		leaderDone <- leaderResult{val, cached, coalesced, err}
	}()
	<-computing

	// Follower with an already-expired context: it must observe
	// ctx.Err() promptly instead of blocking on the leader.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	val, cached, coalesced, err := c.do(ctx, key, func() *ssspVal {
		t.Error("follower must coalesce, not compute")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled follower: err = %v, want context.Canceled", err)
	}
	if val != nil || cached || !coalesced {
		t.Fatalf("canceled follower: val=%v cached=%v coalesced=%v, want nil/false/true", val, cached, coalesced)
	}

	// The leader is unaffected by the follower's departure.
	close(release)
	lr := <-leaderDone
	if lr.err != nil || lr.cached || lr.coalesced {
		t.Fatalf("leader: err=%v cached=%v coalesced=%v, want nil/false/false", lr.err, lr.cached, lr.coalesced)
	}
	if lr.val == nil || lr.val.dist[0] != 42 {
		t.Fatalf("leader value = %+v, want dist[0]=42", lr.val)
	}

	// The completed flight was cached and removed from inflight, so a
	// late caller hits the cache without recomputing.
	val, cached, coalesced, err = c.do(context.Background(), key, func() *ssspVal {
		t.Error("cached key must not recompute")
		return nil
	})
	if err != nil || !cached || coalesced {
		t.Fatalf("post-flight lookup: err=%v cached=%v coalesced=%v, want nil/true/false", err, cached, coalesced)
	}
	if val != lr.val {
		t.Fatalf("cache returned a different value (%p) than the leader produced (%p)", val, lr.val)
	}
	c.mu.Lock()
	inflight := len(c.inflight)
	c.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d inflight entries remain after the flight completed, want 0", inflight)
	}
}

// TestTypedErrorResponses pins the error→status table (serve.go's
// refusals) from the outside: each typed error produces the same
// status, code, Retry-After and counter on every path that can meet
// it — query admission, job submission, and the health probe.
func TestTypedErrorResponses(t *testing.T) {
	// blockJobs occupies the single job worker and fills the
	// one-deep queue, so the next submission overflows.
	blockJobs := func(t *testing.T, s *Server) {
		started := make(chan struct{})
		block := func(ctx context.Context) (any, error) {
			select {
			case started <- struct{}{}:
			case <-ctx.Done():
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		if _, err := s.jobs.submit("busy", block); err != nil {
			t.Fatal(err)
		}
		<-started
		if _, err := s.jobs.submit("queued", block); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name       string
		arrange    func(t *testing.T, s *Server)
		method     string
		path       string
		status     int
		code       string
		retryAfter string
		counter    obs.Counter
	}{
		{"query/queue_full", func(t *testing.T, s *Server) {
			s.adm.tokens <- struct{}{} // the only slot is busy
			s.adm.waiters.Add(1)       // and the one-deep wait queue is full
		}, "GET", "/sssp?src=0", 429, "queue_full", "1", obs.CtrServeRejectedQueue},
		{"query/closing", func(t *testing.T, s *Server) { s.adm.close() },
			"GET", "/sssp?src=0", 503, "closing", "5", obs.CtrServeRejectedClose},
		{"query/deadline", func(t *testing.T, s *Server) {
			s.adm.tokens <- struct{}{} // queued behind a slot that never frees
		}, "GET", "/wbfs?src=0&timeout_ms=1", 504, "deadline", "", obs.CtrServeCanceled},
		{"job/queue_full", blockJobs,
			"POST", "/jobs/densest", 429, "queue_full", "1", obs.CtrServeRejectedQueue},
		{"job/closing", func(t *testing.T, s *Server) { s.jobs.shutdown() },
			"POST", "/jobs/densest", 503, "closing", "5", obs.CtrServeRejectedClose},
		{"health/closing", func(t *testing.T, s *Server) { s.adm.close() },
			"GET", "/healthz", 503, "closing", "5", obs.CtrServeRejectedClose},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			s := New(Config{Graph: testGraph(), Recorder: rec,
				MaxInFlight: 1, MaxQueued: 1, JobWorkers: 1, JobQueue: 1})
			defer s.Close(context.Background())
			row.arrange(t, s)

			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest(row.method, row.path, nil))
			if w.Code != row.status {
				t.Fatalf("status %d, want %d (body %s)", w.Code, row.status, w.Body)
			}
			var body struct{ Error, Detail string }
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("body %q is not JSON: %v", w.Body, err)
			}
			if body.Error != row.code || body.Detail == "" {
				t.Errorf("body = %+v, want error %q with a detail", body, row.code)
			}
			if got := w.Header().Get("Retry-After"); got != row.retryAfter {
				t.Errorf("Retry-After = %q, want %q", got, row.retryAfter)
			}
			for _, r := range refusals {
				want := int64(0)
				if r.counter == row.counter {
					want = 1
				}
				if got := rec.Counter(r.counter.Name()); got != want {
					t.Errorf("counter %s = %d, want %d", r.counter.Name(), got, want)
				}
			}
		})
	}
}
