// Package serve is the graph analytics service (DESIGN.md §12): it
// loads one immutable graph and serves concurrent point queries (SSSP,
// wBFS, coreness lookups) and async analytics jobs (set cover, densest
// subgraph as the densest k-core of the same coreness) over JSON/HTTP,
// using only the standard library.
//
// The serving concerns layer onto the existing kernels without
// touching them:
//
//   - snapshot isolation: the graph is shared read-only between all
//     queries (the concurrent-callers race test in api_race_test.go
//     pins that this is safe); the one mutating algorithm, set cover,
//     clones the graph internally (setcover.Approx).
//   - deadline propagation: each query's timeout becomes a context
//     deadline handed to the kernels' Options.Ctx, so an expired query
//     stops at the next bucket round and reports typed partial
//     progress (*obs.Canceled → HTTP 504).
//   - request coalescing: concurrent identical SSSP queries share one
//     computation (coalesce.go), and recent results live in an LRU.
//   - admission control: a bounded slot + queue gate in front of the
//     handlers (admission.go) converts overload into immediate typed
//     backpressure (429 queue full, 503 draining) instead of latency.
//   - observability: per-endpoint latency histograms and serve.*
//     counters on the shared obs.Recorder, exposed on the same
//     obs.ServeMux debug surface the CLIs use (/metrics, /debug/obs).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"julienne/internal/algo/densest"
	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/graph"
	"julienne/internal/obs"
)

// Config configures a Server. The zero value of every field gets a
// sensible default from New.
type Config struct {
	// Graph is the (immutable, shared) graph every query runs against.
	Graph *graph.CSR
	// Recorder receives serve.* metrics and per-endpoint latency
	// histograms; nil disables telemetry.
	Recorder *obs.Recorder
	// MaxInFlight bounds concurrently-executing queries
	// (default: GOMAXPROCS).
	MaxInFlight int
	// MaxQueued bounds queries waiting for a slot; beyond it requests
	// fail fast with 429 (default: 4×MaxInFlight).
	MaxQueued int
	// CacheSize bounds the SSSP result LRU (default 64 entries).
	CacheSize int
	// JobWorkers is the async-job worker pool size (default 1).
	JobWorkers int
	// JobQueue bounds queued jobs; beyond it submission 429s
	// (default 8).
	JobQueue int
	// DefaultTimeout applies to queries without an explicit
	// ?timeout_ms (default 10s); MaxTimeout clamps explicit ones
	// (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultDelta is the ∆ for /sssp without ?delta (default 32768).
	DefaultDelta int64
}

// Server serves analytics queries against one shared graph. Create
// with New, mount Handler, stop with Close.
type Server struct {
	cfg Config
	g   *graph.CSR
	rec *obs.Recorder

	adm  *admission
	coal *coalescer
	jobs *jobManager
	mux  *http.ServeMux

	// Lazily-computed coreness memo, single-flighted by core and
	// guarded by its lock. A canceled compute is not kept — the next
	// request retries.
	core     flightGroup[struct{}, kcore.Result]
	coreness []uint32

	// Graceful drain: every query context is tied to drain for as long
	// as its handler runs; Close cancels it when its budget expires and
	// the kernels observe the cancellation at their next round. wg
	// counts the handlers Close waits for.
	drain    context.Context
	drainNow context.CancelFunc
	wg       sync.WaitGroup

	closeOnce sync.Once
}

// New builds a Server over cfg.Graph, applying defaults.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 4 * cfg.MaxInFlight
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 64
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.JobQueue <= 0 {
		cfg.JobQueue = 8
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.DefaultDelta <= 0 {
		cfg.DefaultDelta = 32768
	}
	s := &Server{
		cfg:  cfg,
		g:    cfg.Graph,
		rec:  cfg.Recorder,
		adm:  newAdmission(cfg.MaxInFlight, cfg.MaxQueued, cfg.Recorder),
		coal: newCoalescer(cfg.CacheSize, cfg.Recorder),
		jobs: newJobManager(cfg.JobWorkers, cfg.JobQueue, 64, cfg.Recorder),
	}
	s.drain, s.drainNow = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /sssp", func(w http.ResponseWriter, r *http.Request) {
		s.handleDistance(w, r, false)
	})
	s.mux.HandleFunc("GET /wbfs", func(w http.ResponseWriter, r *http.Request) {
		s.handleDistance(w, r, true)
	})
	s.mux.HandleFunc("GET /coreness", s.handleCoreness)
	s.mux.HandleFunc("POST /jobs/{kind}", s.handleJobSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	debug := obs.ServeMux(s.rec)
	s.mux.Handle("/metrics", debug)
	s.mux.Handle("/debug/", debug)
	s.mux.HandleFunc("/{$}", s.handleIndex)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: new queries are rejected with 503
// immediately; in-flight queries run to completion until ctx expires,
// at which point their contexts are canceled and they finish at the
// next kernel round with typed partial results. Jobs are stopped the
// same way. Close never abandons a query — it always waits for the
// handlers to return. Idempotent.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.adm.close()
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
		}
		s.drainNow() // stops whatever is still running; nothing, if drained
		<-done
		s.jobs.shutdown()
	})
	return nil
}

// query is the one way a handler runs a kernel: it resolves the
// timeout (?timeout_ms, defaulted and clamped), derives the request's
// only context from it, ties that context to drain, takes an admission
// slot, and runs body inside all of it, timed into hist — answering
// 400/429/503/504 itself when body never gets to run. Everything is
// undone in query's own defers, so body has nothing to release and
// nowhere to keep ctx.
func (s *Server) query(w http.ResponseWriter, r *http.Request, hist obs.Hist, body func(ctx context.Context)) {
	timeout := s.cfg.DefaultTimeout
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			s.failJSON(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad timeout_ms %q", raw))
			return
		}
		// Clamp before converting: ms·10⁶ ns wraps int64 past ≈9.2·10¹².
		timeout = s.cfg.MaxTimeout
		if ms < timeout.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	s.wg.Add(1)
	defer s.wg.Done()
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stop := context.AfterFunc(s.drain, cancel)
	defer stop()
	err := s.adm.with(ctx, func() {
		s.rec.Inc(obs.CtrServeRequests)
		defer s.rec.ObserveSince(hist, s.rec.Clock())
		body(ctx)
	})
	if err != nil {
		s.refuse(w, err, nil)
	}
}

// distanceResponse is the JSON shape of /sssp and /wbfs.
type distanceResponse struct {
	Algo        string  `json:"algo"`
	Src         uint32  `json:"src"`
	Delta       int64   `json:"delta,omitempty"`
	Rounds      int64   `json:"rounds"`
	Relaxations int64   `json:"relaxations"`
	Reached     int     `json:"reached"`
	MaxDist     int64   `json:"max_dist"`
	Cached      bool    `json:"cached"`
	Coalesced   bool    `json:"coalesced"`
	Target      *uint32 `json:"target,omitempty"`
	TargetDist  *int64  `json:"target_dist,omitempty"`
	Dist        []int64 `json:"dist,omitempty"`
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request, wbfs bool) {
	if !s.g.Weighted() {
		s.failJSON(w, http.StatusBadRequest, "unweighted",
			"graph is unweighted; served applies a weighting at startup for SSSP endpoints")
		return
	}
	q := r.URL.Query()
	src, err := s.vertexParam(q.Get("src"), true)
	if err != nil {
		s.failJSON(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	delta := s.cfg.DefaultDelta
	if wbfs {
		delta = 1
	} else if raw := q.Get("delta"); raw != "" {
		delta, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || delta <= 0 {
			s.failJSON(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad delta %q", raw))
			return
		}
	}
	full, err := boolParam("full", q.Get("full"))
	if err != nil {
		s.failJSON(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var target *uint32
	if raw := q.Get("target"); raw != "" {
		t, err := s.vertexParam(raw, true)
		if err != nil {
			s.failJSON(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		tv := uint32(t)
		target = &tv
	}
	hist := obs.HistServeSSSPNs
	if wbfs {
		hist = obs.HistServeWBFSNs
	}
	s.query(w, r, hist, func(ctx context.Context) {
		val, cached, coalesced, err := s.coal.do(ctx, ssspKey{src: src, delta: delta}, func() (*ssspVal, error) {
			res := sssp.DeltaStepping(s.g, src, delta, sssp.Options{Recorder: s.rec, Ctx: ctx})
			return &ssspVal{dist: res.Dist, rounds: res.Rounds, relaxations: res.Relaxations}, res.Err
		})
		if err != nil {
			s.writeCanceled(w, err)
			return
		}
		resp := distanceResponse{
			Algo: "delta-stepping", Src: uint32(src), Delta: delta,
			Rounds: val.rounds, Relaxations: val.relaxations,
			Cached: cached, Coalesced: coalesced,
		}
		if wbfs {
			resp.Algo, resp.Delta = "wbfs", 0
		}
		for _, d := range val.dist {
			if d != sssp.Unreachable {
				resp.Reached++
				if d > resp.MaxDist {
					resp.MaxDist = d
				}
			}
		}
		if target != nil {
			td := val.dist[*target]
			resp.Target, resp.TargetDist = target, &td
		}
		if full {
			resp.Dist = val.dist
		}
		s.writeJSON(w, http.StatusOK, resp)
	})
}

func (s *Server) handleCoreness(w http.ResponseWriter, r *http.Request) {
	if !s.g.Symmetric() {
		s.failJSON(w, http.StatusBadRequest, "directed",
			"coreness requires an undirected graph (load with -symmetric)")
		return
	}
	v, err := s.vertexParam(r.URL.Query().Get("v"), true)
	if err != nil {
		s.failJSON(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.query(w, r, obs.HistServeCorenessNs, func(ctx context.Context) {
		coreness, err := s.corenessValues(ctx)
		if err != nil {
			s.writeCanceled(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{
			"v":        uint32(v),
			"coreness": coreness[v],
		})
	})
}

// corenessValues returns the coreness array, computing it on first
// use. Concurrent first requests share one computation; a canceled one
// is reported to its requesters but not kept, so the next request
// retries.
func (s *Server) corenessValues(ctx context.Context) ([]uint32, error) {
	res, _, err := s.core.do(ctx, struct{}{},
		func() (kcore.Result, bool) {
			return kcore.Result{Coreness: s.coreness}, s.coreness != nil
		},
		func() (kcore.Result, error) {
			res := kcore.Coreness(s.g, kcore.Options{Recorder: s.rec, Ctx: ctx})
			return res, res.Err
		},
		func(res kcore.Result) { s.coreness = res.Coreness })
	return res.Coreness, err
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	q := r.URL.Query()
	var fn func(ctx context.Context) (any, error)
	switch kind {
	case "setcover":
		numSets := s.g.NumVertices() / 2
		if raw := q.Get("sets"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n <= 0 || n > s.g.NumVertices() {
				s.failJSON(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad sets %q", raw))
				return
			}
			numSets = n
		}
		eps, err := floatParam(q.Get("eps"), 0.01)
		if err != nil {
			s.failJSON(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		fn = func(ctx context.Context) (any, error) {
			// setcover consumes its input; Approx clones the shared
			// graph internally, so queries keep snapshot isolation.
			res := setcover.Approx(s.g, numSets, setcover.Options{
				Epsilon: eps, Recorder: s.rec, Ctx: ctx,
			})
			if res.Err != nil {
				return nil, res.Err
			}
			return map[string]any{
				"cover_size": res.CoverSize,
				"rounds":     res.Rounds,
				"sets":       numSets,
			}, nil
		}
	case "densest":
		if !s.g.Symmetric() {
			s.failJSON(w, http.StatusBadRequest, "directed",
				"densest subgraph requires an undirected graph")
			return
		}
		if q.Has("eps") {
			s.failJSON(w, http.StatusBadRequest, "bad_request",
				"the densest subgraph job takes no eps")
			return
		}
		fn = func(ctx context.Context) (any, error) {
			// The densest k-core, over the coreness memo /coreness
			// shares.
			coreness, err := s.corenessValues(ctx)
			if err != nil {
				return nil, err
			}
			res := densest.FromCoreness(s.g, coreness)
			return map[string]any{
				"density": res.Density,
				"size":    len(res.Vertices),
			}, nil
		}
	default:
		s.failJSON(w, http.StatusNotFound, "unknown_job",
			fmt.Sprintf("unknown job kind %q (want setcover or densest)", kind))
		return
	}
	j, err := s.jobs.submit(kind, fn)
	if err != nil {
		s.refuse(w, err, nil)
		return
	}
	s.writeJSON(w, http.StatusAccepted, j.info())
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	info, ok := s.jobs.lookup(r.PathValue("id"))
	if !ok {
		s.failJSON(w, http.StatusNotFound, "unknown_job", "no such job")
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-s.adm.closed:
		s.refuse(w, ErrClosing, nil)
	default:
		s.writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"vertices": s.g.NumVertices(),
			"edges":    s.g.NumEdges(),
			"weighted": s.g.Weighted(),
			"inflight": s.adm.inFlight(),
		})
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, `julienne graph analytics service
  GET  /healthz
  GET  /sssp?src=N[&delta=D][&target=M][&full=1][&timeout_ms=T]
  GET  /wbfs?src=N[&target=M][&full=1][&timeout_ms=T]
  GET  /coreness?v=N[&timeout_ms=T]
  POST /jobs/setcover[?sets=N&eps=E]
  POST /jobs/densest
  GET  /jobs/{id}
  GET  /metrics | /debug/obs | /debug/pprof/
`)
}

// writeCanceled answers a query that has no value: a kernel run
// canceled mid-way is refused as a deadline with its typed
// partial-progress stats (*obs.Canceled carries algo, rounds, cause)
// as the body; any other error (a wait that expired, an abandoned
// flight) gets its standard refusal.
func (s *Server) writeCanceled(w http.ResponseWriter, err error) {
	var c *obs.Canceled
	if !errors.As(err, &c) {
		s.refuse(w, err, nil)
		return
	}
	s.refuse(w, err, map[string]any{
		"error":  "canceled",
		"algo":   c.Algo,
		"rounds": c.Rounds,
		"cause":  fmt.Sprint(c.Cause),
	})
}

// refusal is one row of the typed-error → HTTP table. Every response
// to backpressure, draining, or an expired deadline is written from
// it, so each error has exactly one status, code, Retry-After and
// counter, on every path that can meet it.
type refusal struct {
	errs       []error // matched with errors.Is
	status     int
	code       string
	retryAfter string // seconds; "" sends no header
	counter    obs.Counter
}

var refusals = []refusal{
	{[]error{ErrQueueFull}, http.StatusTooManyRequests, "queue_full", "1", obs.CtrServeRejectedQueue},
	{[]error{ErrClosing}, http.StatusServiceUnavailable, "closing", "5", obs.CtrServeRejectedClose},
	{[]error{obs.ErrCanceled, context.DeadlineExceeded, context.Canceled},
		http.StatusGatewayTimeout, "deadline", "", obs.CtrServeCanceled},
	{[]error{errFlightAbandoned}, http.StatusInternalServerError, "internal", "", obs.Counter{}},
}

// refuse answers a request that failed with err. A typed error gets
// its table row — counter, Retry-After, status — with body, or the
// standard {error, detail} pair when body is nil; anything else is a
// 500.
func (s *Server) refuse(w http.ResponseWriter, err error, body any) {
	for _, row := range refusals {
		for _, target := range row.errs {
			if !errors.Is(err, target) {
				continue
			}
			if row.counter != (obs.Counter{}) {
				s.rec.Inc(row.counter)
			}
			if row.retryAfter != "" {
				w.Header().Set("Retry-After", row.retryAfter)
			}
			if body == nil {
				body = map[string]string{"error": row.code, "detail": err.Error()}
			}
			s.writeJSON(w, row.status, body)
			return
		}
	}
	s.failJSON(w, http.StatusInternalServerError, "internal", err.Error())
}

// vertexParam parses a vertex id, validating the range.
func (s *Server) vertexParam(raw string, required bool) (graph.Vertex, error) {
	if raw == "" {
		if required {
			return 0, errors.New("missing vertex parameter")
		}
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q", raw)
	}
	if int(v) >= s.g.NumVertices() {
		return 0, fmt.Errorf("vertex %d out of range [0,%d)", v, s.g.NumVertices())
	}
	return graph.Vertex(v), nil
}

// boolParam parses an optional flag parameter with strconv.ParseBool;
// absent is false.
func boolParam(name, raw string) (bool, error) {
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

func floatParam(raw string, def float64) (float64, error) {
	if raw == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad float %q (want finite, >= 0)", raw)
	}
	return f, nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// failJSON writes the typed error body every non-200 response uses.
func (s *Server) failJSON(w http.ResponseWriter, status int, code, detail string) {
	s.writeJSON(w, status, map[string]string{"error": code, "detail": detail})
}
