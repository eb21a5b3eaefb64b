package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"julienne/internal/algo/kcore"
	"julienne/internal/graph"
	"julienne/internal/harness"
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
// return: a rejected submission must not be remembered, must not
// consume queue capacity, and must leave the pool able to accept work
// once the queue drains.
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
// cancellation path: a follower whose context expires while waiting
// gets ctx.Err(), while the leader's computation still completes,
// caches, and leaves no inflight entry.
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

// drainRegistrations counts the query contexts still tied to the
// server's drain context, by the size of its child set — there is no
// exported view of it. The field name is the standard library's
// (context.cancelCtx.children); ok is false if that ever changes.
func drainRegistrations(s *Server) (n int, ok bool) {
	children := reflect.ValueOf(s.drain).Elem().FieldByName("children")
	if !children.IsValid() || children.Kind() != reflect.Map {
		return 0, false
	}
	return children.Len(), true
}

// panicOn200 is a ResponseWriter that panics instead of starting a
// 200 response: the one point every query body passes with its slot
// still held.
type panicOn200 struct{ *httptest.ResponseRecorder }

func (w panicOn200) WriteHeader(status int) {
	if status == http.StatusOK {
		panic("panicOn200: handler body reached its 200")
	}
	w.ResponseRecorder.WriteHeader(status)
}

// TestQueryLeavesNothingBehind walks every query endpoint through
// every way a query can end and checks afterwards what only query and
// admission.with can get wrong: no admission slot or queue position
// held, no context still tied to drain, the in-flight gauge back at
// zero, and Close returning at once with no goroutine left.
func TestQueryLeavesNothingBehind(t *testing.T) {
	type endpoint struct {
		name, path string
		// lead runs a computation the endpoint's next request will
		// coalesce onto: it closes started once its flight is up and
		// computes until release is closed.
		lead func(s *Server, started chan<- struct{}, release <-chan struct{})
	}
	leadDistance := func(key ssspKey) func(*Server, chan<- struct{}, <-chan struct{}) {
		return func(s *Server, started chan<- struct{}, release <-chan struct{}) {
			s.coal.do(context.Background(), key, func() *ssspVal {
				close(started)
				<-release
				return &ssspVal{err: context.Canceled}
			})
		}
	}
	endpoints := []endpoint{
		{"sssp", "/sssp?src=0", leadDistance(ssspKey{delta: 32768})},
		{"wbfs", "/wbfs?src=0", leadDistance(ssspKey{delta: 1, wbfs: true})},
		{"coreness", "/coreness?v=0", func(s *Server, started chan<- struct{}, release <-chan struct{}) {
			s.core.do(context.Background(), struct{}{},
				func() (kcore.Result, bool) { return kcore.Result{}, false },
				func() kcore.Result {
					close(started)
					<-release
					return kcore.Result{Err: context.Canceled}
				},
				func(kcore.Result) {})
		}},
	}
	type outcome struct {
		name    string
		slow    bool   // run on slowGraph: the kernel outlives timeout_ms=1
		params  string // appended to the endpoint's path
		status  int    // 0: the handler panics
		arrange func(t *testing.T, s *Server, ep endpoint) (undo func())
	}
	nothing := func(*testing.T, *Server, endpoint) func() { return func() {} }
	outcomes := []outcome{
		{"200", false, "", 200, nothing},
		{"400 before admission", false, "&timeout_ms=x", 400, nothing},
		{"429 queue full", false, "", 429, func(t *testing.T, s *Server, _ endpoint) func() {
			s.adm.tokens <- struct{}{}
			s.adm.waiters.Add(1)
			return func() { <-s.adm.tokens; s.adm.waiters.Add(-1) }
		}},
		{"503 draining", false, "", 503, func(t *testing.T, s *Server, _ endpoint) func() {
			s.adm.close()
			return func() {}
		}},
		{"504 deadline in the kernel", true, "&timeout_ms=1", 504, nothing},
		{"504 coalesced follower gives up", false, "&timeout_ms=30", 504,
			func(t *testing.T, s *Server, ep endpoint) func() {
				started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
				go func() { defer close(done); ep.lead(s, started, release) }()
				<-started
				return func() { close(release); <-done }
			}},
		{"handler body panics", false, "", 0, nothing},
	}
	for _, ep := range endpoints {
		for _, oc := range outcomes {
			t.Run(ep.name+"/"+oc.name, func(t *testing.T) {
				defer harness.LeakCheck(t)()
				rec := obs.NewRecorder()
				g := testGraph()
				if oc.slow {
					g = slowGraph()
				}
				s := New(Config{Graph: g, Recorder: rec, MaxInFlight: 1, MaxQueued: 1})
				undo := oc.arrange(t, s, ep)

				w := httptest.NewRecorder()
				req := httptest.NewRequest("GET", ep.path+oc.params, nil)
				if oc.status == 0 {
					func() {
						defer func() {
							if recover() == nil {
								t.Error("handler returned; want the body's panic")
							}
						}()
						s.Handler().ServeHTTP(panicOn200{w}, req)
					}()
				} else if s.Handler().ServeHTTP(w, req); w.Code != oc.status {
					t.Errorf("status %d, want %d (body %s)", w.Code, oc.status, w.Body)
				}
				undo()

				if n, q := s.adm.inFlight(), s.adm.waiters.Load(); n != 0 || q != 0 {
					t.Errorf("%d admission slots and %d queue positions still held", n, q)
				}
				if n, ok := drainRegistrations(s); !ok {
					t.Error("context.cancelCtx has no children map any more; update drainRegistrations")
				} else if n != 0 {
					t.Errorf("%d query contexts still tied to drain", n)
				}
				if v := rec.Gauge(obs.GaugeServeInflight.Name()); v != 0 {
					t.Errorf("in-flight gauge = %d, want 0", v)
				}
				closed := make(chan struct{})
				go func() { defer close(closed); s.Close(context.Background()) }()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatal("Close still waiting on a query that has returned")
				}
			})
		}
	}
}

// hugeWeightPath is a 4-vertex path with MaxInt32 weights: with
// delta=1 its distances need more bucket ids than exist, which the
// ∆-stepping driver answers with a panic inside the kernel.
func hugeWeightPath() *graph.CSR {
	w := graph.Weight(math.MaxInt32)
	return graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: w}, {U: 1, V: 2, W: w}, {U: 2, V: 3, W: w}},
		graph.BuildOptions{Weighted: true, Symmetrize: true})
}

// TestPanickingLeaderLandsItsFlight pins that a computation that
// panics takes its flight down with it: followers waiting on it are
// answered at once with a typed 500, and the key is free for the next
// request — it used to stay in flight for the life of the process,
// every later identical request waiting out its whole deadline.
func TestPanickingLeaderLandsItsFlight(t *testing.T) {
	rec := obs.NewRecorder()
	s := New(Config{Graph: hugeWeightPath(), Recorder: rec, MaxInFlight: 2})
	defer s.Close(context.Background())
	inflight := func() int {
		s.coal.mu.Lock()
		defer s.coal.mu.Unlock()
		return len(s.coal.inflight)
	}
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	// A leader that panics while a request is coalesced onto it.
	release, leaderGone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(leaderGone)
		defer func() { _ = recover() }()
		s.coal.do(context.Background(), ssspKey{delta: 1 << 40}, func() *ssspVal {
			<-release
			panic("kernel failure")
		})
	}()
	waitFor(t, "the leader's flight", func() bool { return inflight() == 1 })
	follower := make(chan *httptest.ResponseRecorder, 1)
	start := time.Now()
	go func() { follower <- get("/sssp?src=0&delta=1099511627776&timeout_ms=3000") }()
	// Both lookups missed the cache under the flight lock, so the
	// follower has found the flight by the time the second is counted.
	waitFor(t, "the follower to join", func() bool {
		return rec.Counter(obs.CtrServeCacheMisses.Name()) == 2
	})
	close(release)
	<-leaderGone
	w := <-follower
	var body struct{ Error, Detail string }
	_ = json.Unmarshal(w.Body.Bytes(), &body)
	if w.Code != http.StatusInternalServerError || body.Error != "internal" || body.Detail == "" {
		t.Errorf("follower of a panicked leader: %d %s, want a typed 500 internal", w.Code, w.Body)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("follower waited %v: it sat out its deadline instead of the flight landing", d)
	}

	// The same end to end: delta=1 overflows the bucket-id space inside
	// the kernel and the handler panics (net/http's business) ...
	func() {
		defer func() {
			if recover() == nil {
				t.Error("/sssp?delta=1 on MaxInt32 weights did not panic; the bucket-id guard is gone?")
			}
		}()
		get("/sssp?src=0&delta=1")
	}()
	// ... leaving no flight, slot or queue position behind, so a delta
	// that fits is served.
	if n := inflight(); n != 0 {
		t.Errorf("%d flights left behind by panicked leaders", n)
	}
	if n := s.adm.inFlight(); n != 0 {
		t.Errorf("%d admission slots left behind by panicked handlers", n)
	}
	if w := get("/sssp?src=0&delta=1073741824&target=3&timeout_ms=2000"); w.Code != http.StatusOK {
		t.Errorf("query after the panics: %d %s, want 200", w.Code, w.Body)
	}
}
