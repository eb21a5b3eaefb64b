package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"julienne/internal/algo/kcore"
	"julienne/internal/algo/sssp"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/harness"
	"julienne/internal/obs"
)

// testGraph is a small weighted undirected grid every test shares.
func testGraph() *graph.CSR {
	return gen.UniformWeights(gen.Grid2D(24, 24), 1, 8, 7)
}

// slowGraph is big enough that one SSSP takes many bucket rounds —
// the deadline, backpressure, and drain tests need queries that are
// reliably in flight when the test acts.
func slowGraph() *graph.CSR {
	return gen.UniformWeights(gen.Grid2D(192, 192), 1, 8, 7)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Graph == nil {
		cfg.Graph = testGraph()
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.NewRecorder()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return m
}

func TestQueryEndpointsMatchDirectComputation(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, Config{Graph: g})

	want := sssp.DeltaStepping(g, 5, 32768, sssp.Options{})
	m := getJSON(t, ts.URL+"/sssp?src=5&full=1&target=42", http.StatusOK)
	dist, ok := m["dist"].([]any)
	if !ok || len(dist) != g.NumVertices() {
		t.Fatalf("full=1 did not return the distance vector: %v", m["dist"])
	}
	for v, d := range dist {
		if int64(d.(float64)) != want.Dist[v] {
			t.Fatalf("dist[%d] = %v, want %d", v, d, want.Dist[v])
		}
	}
	if int64(m["target_dist"].(float64)) != want.Dist[42] {
		t.Fatalf("target_dist = %v, want %d", m["target_dist"], want.Dist[42])
	}

	// wbfs returns exact distances too.
	wantW := sssp.WBFS(g, 7, sssp.Options{})
	m = getJSON(t, ts.URL+"/wbfs?src=7&full=1", http.StatusOK)
	for v, d := range m["dist"].([]any) {
		if int64(d.(float64)) != wantW.Dist[v] {
			t.Fatalf("wbfs dist[%d] = %v, want %d", v, d, wantW.Dist[v])
		}
	}

	wantCore := kcore.Coreness(g, kcore.Options{}).Coreness
	m = getJSON(t, ts.URL+"/coreness?v=100", http.StatusOK)
	if uint32(m["coreness"].(float64)) != wantCore[100] {
		t.Fatalf("coreness = %v, want %d", m["coreness"], wantCore[100])
	}

	// Second identical query must come from the cache.
	m = getJSON(t, ts.URL+"/sssp?src=5&full=1&target=42", http.StatusOK)
	if m["cached"] != true {
		t.Fatal("repeat query did not hit the result cache")
	}

	// /wbfs is /sssp with delta=1: one run answers both.
	sssp1 := getJSON(t, ts.URL+"/sssp?src=9&delta=1&full=1", http.StatusOK)
	m = getJSON(t, ts.URL+"/wbfs?src=9&full=1", http.StatusOK)
	if m["cached"] != true || m["algo"] != "wbfs" || m["delta"] != nil {
		t.Fatalf("/wbfs after /sssp?delta=1: cached=%v algo=%v delta=%v, want true, wbfs and no delta",
			m["cached"], m["algo"], m["delta"])
	}
	if got, want := fmt.Sprint(m["dist"]), fmt.Sprint(sssp1["dist"]); got != want {
		t.Fatalf("/wbfs answered other distances than /sssp?delta=1:\n%s\n%s", got, want)
	}
}

// TestBoolParamsAreParsed: full accepts every strconv.ParseBool
// spelling and refuses anything else with a typed 400.
func TestBoolParamsAreParsed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for raw, want := range map[string]bool{
		"1": true, "t": true, "T": true, "TRUE": true, "true": true, "True": true,
		"0": false, "f": false, "F": false, "FALSE": false, "false": false, "False": false,
	} {
		m := getJSON(t, ts.URL+"/wbfs?src=7&full="+raw, http.StatusOK)
		if got := m["dist"] != nil; got != want {
			t.Errorf("full=%s: distance vector returned = %v, want %v", raw, got, want)
		}
	}
	if m := getJSON(t, ts.URL+"/wbfs?src=7&full=yes", http.StatusBadRequest); m["error"] != "bad_request" {
		t.Errorf("full=yes: got %v, want a bad_request", m)
	}
}

func TestBadRequestsAreTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"/sssp",                // missing src
		"/sssp?src=999999",     // out of range
		"/sssp?src=1&delta=-3", // bad delta
		"/sssp?src=1&timeout_ms=x",
		"/sssp?src=1&full=2",
		"/coreness?v=abc",
	} {
		m := getJSON(t, ts.URL+q, http.StatusBadRequest)
		if m["error"] != "bad_request" {
			t.Fatalf("%s: no typed error code in %v", q, m)
		}
	}
	// ε is an approximation parameter: NaN or ±Inf leaves the job with
	// no guarantee, so it is refused like a negative one. The densest
	// job (the densest k-core) has no ε, so it refuses any.
	for _, q := range []string{
		"/jobs/setcover?eps=NaN",
		"/jobs/setcover?eps=-1",
		"/jobs/densest?eps=Inf",
		"/jobs/densest?eps=-Inf",
		"/jobs/densest?eps=0.1",
	} {
		resp, err := http.Post(ts.URL+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || m["error"] != "bad_request" {
			t.Fatalf("POST %s: status %d body %v err %v, want 400 bad_request", q, resp.StatusCode, m, err)
		}
	}
	m := getJSON(t, ts.URL+"/jobs/nope-1", http.StatusNotFound)
	if m["error"] != "unknown_job" {
		t.Fatalf("unknown job id: got %v", m)
	}
	// A timeout_ms too large for a time.Duration in nanoseconds is
	// clamped to MaxTimeout like any other large value, not wrapped
	// into an already-expired deadline.
	for _, q := range []string{
		"/sssp?src=1&timeout_ms=9300000000000",
		"/coreness?v=1&timeout_ms=9223372036854775807",
	} {
		getJSON(t, ts.URL+q, http.StatusOK)
	}
}

func TestDeadlineReturns504WithPartialStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: slowGraph()})
	m := getJSON(t, ts.URL+"/sssp?src=0&timeout_ms=1", http.StatusGatewayTimeout)
	if m["error"] != "canceled" && m["error"] != "deadline" {
		t.Fatalf("want typed cancellation, got %v", m)
	}
	// The kernel's *obs.Canceled carries the partial progress.
	if m["error"] == "canceled" {
		if _, ok := m["rounds"]; !ok {
			t.Fatalf("504 body missing partial stats: %v", m)
		}
	}
}

func TestBackpressure429WhenSaturated(t *testing.T) {
	// One slot, no queue: with many concurrent slow queries (distinct
	// sources, so no coalescing) some must be rejected immediately.
	rec := obs.NewRecorder()
	_, ts := newTestServer(t, Config{Graph: slowGraph(), Recorder: rec, MaxInFlight: 1, MaxQueued: 1})
	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/sssp?src=%d", ts.URL, i*100))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)
	var ok200, rejected int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok200 == 0 || rejected == 0 {
		t.Fatalf("want both successes and 429s under saturation, got %d ok / %d rejected", ok200, rejected)
	}
	if rec.Counter(obs.CtrServeRejectedQueue.Name()) == 0 {
		t.Fatal("rejection counter not incremented")
	}
}

func TestClosingReturns503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Close(ctx)
	resp, err := http.Get(ts.URL + "/sssp?src=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after Close, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d after Close, want 503", resp2.StatusCode)
	}
}

func TestCoalescedRequestsShareOneComputation(t *testing.T) {
	rec := obs.NewRecorder()
	const n = 8
	// Followers hold admission slots while waiting on the leader's
	// computation, so the gate must admit all n at once.
	_, ts := newTestServer(t, Config{Graph: slowGraph(), Recorder: rec, MaxInFlight: n})
	type out struct {
		dist      string
		coalesced bool
		cached    bool
	}
	results := make(chan out, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := getJSON(t, ts.URL+"/sssp?src=33&full=1", http.StatusOK)
			b, _ := json.Marshal(m["dist"])
			results <- out{dist: string(b), coalesced: m["coalesced"] == true, cached: m["cached"] == true}
		}()
	}
	wg.Wait()
	close(results)
	var first string
	var shared int
	for r := range results {
		if first == "" {
			first = r.dist
		} else if r.dist != first {
			t.Fatal("coalesced requests returned different distance vectors")
		}
		if r.coalesced || r.cached {
			shared++
		}
	}
	// Exactly one request computes; every other one coalesces onto it
	// or reads the cache.
	if shared != n-1 {
		t.Fatalf("%d of %d requests shared the computation, want %d", shared, n, n-1)
	}
}

func TestJobsLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for kind, wantKey := range map[string]string{"densest": "density", "setcover": "cover_size"} {
		resp, err := http.Post(ts.URL+"/jobs/"+kind, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var info jobInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted || info.ID == "" {
			t.Fatalf("submit %s: status %d info %+v err %v", kind, resp.StatusCode, info, err)
		}
		var final jobInfo
		for i := 0; i < 200; i++ {
			m := getJSON(t, ts.URL+"/jobs/"+info.ID, http.StatusOK)
			final = jobInfo{Status: m["status"].(string)}
			if r, ok := m["result"].(map[string]any); ok {
				if _, ok := r[wantKey]; !ok {
					t.Fatalf("%s result missing %q: %v", kind, wantKey, r)
				}
			}
			if final.Status == jobDone || final.Status == jobFailed || final.Status == jobCanceled {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if final.Status != jobDone {
			t.Fatalf("%s job ended %q", kind, final.Status)
		}
	}
	m := getJSON(t, ts.URL+"/jobs/frobnicate", http.StatusNotFound)
	if m["error"] != "unknown_job" {
		t.Fatalf("unknown kind: %v", m)
	}
}

func TestGracefulShutdownDrainsWithoutLeaks(t *testing.T) {
	defer harness.LeakCheck(t)()
	rec := obs.NewRecorder()
	s := New(Config{Graph: slowGraph(), Recorder: rec})
	ts := httptest.NewServer(s.Handler())

	// A long query is in flight when Close begins; Close's expired
	// drain budget cancels it, and the query returns a typed 504 —
	// drained, not abandoned.
	started := make(chan struct{})
	status := make(chan int, 1)
	go func() {
		close(started)
		resp, err := http.Get(ts.URL + "/sssp?src=0&timeout_ms=30000")
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the query reach the kernel

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case code := <-status:
		if code != http.StatusGatewayTimeout && code != http.StatusOK {
			t.Fatalf("drained query returned %d, want 504 (canceled) or 200 (finished)", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query not drained by Close")
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
}

func TestLRUCacheEviction(t *testing.T) {
	l := newLRU(2)
	k := func(i int) ssspKey { return ssspKey{src: graph.Vertex(i)} }
	v := &ssspVal{}
	l.put(k(1), v)
	l.put(k(2), v)
	if _, ok := l.get(k(1)); !ok {
		t.Fatal("k1 evicted too early")
	}
	l.put(k(3), v) // evicts k2 (k1 was just used)
	if _, ok := l.get(k(2)); ok {
		t.Fatal("k2 not evicted")
	}
	if _, ok := l.get(k(1)); !ok {
		t.Fatal("k1 wrongly evicted")
	}
	if _, ok := l.get(k(3)); !ok {
		t.Fatal("k3 missing")
	}
}

func TestAdmissionGate(t *testing.T) {
	a := newAdmission(1, 1, nil)
	bg := context.Background()
	unreachable := func() { t.Error("fn ran without a slot") }

	held, release := make(chan struct{}), make(chan struct{})
	holderErr := make(chan error, 1)
	go func() {
		holderErr <- a.with(bg, func() { close(held); <-release })
	}()
	<-held
	// Slot taken; one waiter fits, the second is rejected.
	ctx, cancel := context.WithCancel(bg)
	waitErr := make(chan error, 1)
	go func() { waitErr <- a.with(ctx, unreachable) }()
	for a.waiters.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.with(bg, unreachable); err != ErrQueueFull {
		t.Fatalf("overflow with: %v, want ErrQueueFull", err)
	}
	cancel()
	if err := <-waitErr; err != context.Canceled {
		t.Fatalf("canceled waiter: %v", err)
	}
	close(release)
	if err := <-holderErr; err != nil {
		t.Fatalf("holder: %v", err)
	}

	// The slot comes back when fn returns, and when it panics.
	func() {
		defer func() { _ = recover() }()
		_ = a.with(bg, func() { panic("boom") })
	}()
	if n, w := a.inFlight(), a.waiters.Load(); n != 0 || w != 0 {
		t.Fatalf("%d slots held, %d waiters after every with returned", n, w)
	}

	a.close()
	if err := a.with(bg, unreachable); err != ErrClosing {
		t.Fatalf("with after close: %v, want ErrClosing", err)
	}
}
