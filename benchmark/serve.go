package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"julienne"
	"julienne/internal/serve"
)

// Shape of the served request mix (README.md, serve-zipf).
const (
	zipfS         = 1.1 // source popularity exponent
	corenessShare = 0.1 // of requests; the rest are distance queries
	cacheSize     = 64  // the server's result LRU
	roundRequests = 150 // requests in one round of the mixed phase
	coldPerRound  = 16  // P=1 cold requests after each round
	refSources    = 32  // hottest sources checked against the reference
)

type request struct {
	url      string // path and query
	coreness bool
	v        julienne.Vertex // the source, or the coreness vertex
}

// answer is what the checks read from a 200 body.
type answer struct {
	Src        uint32 `json:"src"`
	Reached    int    `json:"reached"`
	MaxDist    int64  `json:"max_dist"`
	TargetDist *int64 `json:"target_dist"`
	Cached     bool   `json:"cached"`
	Coalesced  bool   `json:"coalesced"`
	V          uint32 `json:"v"`
	Coreness   uint32 `json:"coreness"`
}

// summary is the part of a distance answer that every computation of
// it must agree on (rounds and relaxation counts depend on scheduling).
type summary struct {
	reached    int
	maxDist    int64
	targetDist int64
	hash       uint64 // of the full reference vector; zero for observed answers
}

// servePlan is the request sequence of one serving measurement over g
// and the references its answers are checked against.
type servePlan struct {
	g    *julienne.CSR
	path string
	// reqs is the mixed sequence every round replays; cold is the P=1
	// block: the coldPerRound hottest sources, one request each, so
	// that every answer is computed and every block costs the same.
	reqs, cold []request
	// hot are the refSources most popular sources, refs their
	// reference summaries; coreness is the reference coreness.
	hot      []julienne.Vertex
	refs     map[julienne.Vertex]summary
	coreness []uint32

	mu   sync.Mutex
	seen map[julienne.Vertex]summary // first answer per source, for consistency
}

// targetOf fixes the target of every query from src, so that equal
// sources mean equal URLs.
func targetOf(src julienne.Vertex, n int) julienne.Vertex {
	return julienne.Vertex((uint64(src)*2654435761 + 12345) % uint64(n))
}

func summarize(dist []int64, target julienne.Vertex) summary {
	s := summary{targetDist: dist[target]}
	for _, d := range dist {
		if d != julienne.UnreachableDist {
			s.reached++
			s.maxDist = max(s.maxDist, d)
		}
	}
	return s
}

// newServePlan draws the request sequence from the seed. Sources are
// zipf-distributed over the vertices reachable from vertex 0, the hub of
// the giant component: a source outside it answers in microseconds and
// would otherwise be what a fast-decile cold latency measures.
func newServePlan(g *julienne.CSR, w *workload, cfg config) (*servePlan, error) {
	n := g.NumVertices()
	p := &servePlan{g: g, path: w.servePath, refs: map[julienne.Vertex]summary{}, seen: map[julienne.Vertex]summary{}}
	nReqs, nRefs := roundRequests, refSources
	if !w.served {
		// A traced pass of a kernel workload sends one short round: enough
		// to fill every serving-layer metric.
		nReqs, nRefs = 24, 4
	}
	if cfg.smoke {
		nReqs, nRefs = 40, 4
	}

	d0, err := refDist(g, 0)
	if err != nil {
		return nil, err
	}
	var verts []julienne.Vertex
	for v, d := range d0 {
		if d != julienne.UnreachableDist {
			verts = append(verts, julienne.Vertex(v))
		}
	}
	if len(verts) < nRefs {
		return nil, fmt.Errorf("serve plan: only %d vertices reachable from 0", len(verts))
	}
	if p.coreness, err = refCoreness(g); err != nil {
		return nil, err
	}
	for _, src := range verts[:nRefs] {
		d, err := refDist(g, src)
		if err != nil {
			return nil, err
		}
		s := summarize(d, targetOf(src, n))
		s.hash = result{dist: d}.hash()
		p.hot, p.refs[src] = append(p.hot, src), s
	}
	for _, src := range p.hot[:min(coldPerRound, len(p.hot))] {
		p.cold = append(p.cold, p.distanceRequest(src))
	}
	mix := rand.New(rand.NewPCG(cfg.seed, 0x6d6978))
	for _, rank := range zipfRanks(cfg.seed, zipfS, len(verts), nReqs) {
		if mix.Float64() < corenessShare {
			v := julienne.Vertex(mix.IntN(n))
			p.reqs = append(p.reqs, request{url: fmt.Sprintf("/coreness?v=%d", v), coreness: true, v: v})
			continue
		}
		p.reqs = append(p.reqs, p.distanceRequest(verts[rank]))
	}
	return p, nil
}

func (p *servePlan) distanceRequest(src julienne.Vertex) request {
	return request{url: fmt.Sprintf("%s?src=%d&target=%d", p.path, src, targetOf(src, p.g.NumVertices())), v: src}
}

// liveServer is an in-process serve.Server behind a loopback listener
// on a port the kernel picks.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

func startServer(g *julienne.CSR, rec *julienne.Recorder) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &liveServer{
		srv:    serve.New(serve.Config{Graph: g, Recorder: rec, CacheSize: cacheSize}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the server down and waits for both.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if cerr := s.srv.Close(ctx); err == nil {
		err = cerr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// sample is one timed request for distances from src, or for a
// coreness.
type sample struct {
	seconds            float64
	src                julienne.Vertex
	cold, cached, sssp bool
}

// get sends one request, times it from send to last body byte, and
// then checks the answer.
func (p *servePlan) get(client *http.Client, base string, rq request, tr *julienne.Recorder, ver *verifier) sample {
	sp := tr.StartSpan("client.request").Arg("parent", "round").Arg("url", rq.url)
	t0 := time.Now()
	status, body, err := fetch(client, base+rq.url)
	dt := time.Since(t0)
	sp.End()
	var a answer
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &a)
	}
	s := sample{seconds: dt.Seconds(), src: rq.v, sssp: !rq.coreness}
	switch {
	case err != nil:
		ver.check(false, "GET %s: %v", rq.url, err)
	case status != http.StatusOK:
		ver.check(false, "GET %s: status %d: %s", rq.url, status, body)
	case rq.coreness:
		ver.check(a.V == uint32(rq.v) && a.Coreness == p.coreness[rq.v],
			"GET %s: coreness %d of vertex %d, reference %d", rq.url, a.Coreness, a.V, p.coreness[rq.v])
	default:
		s.cached, s.cold = a.Cached, !a.Cached && !a.Coalesced
		p.checkDistance(rq, a, ver)
	}
	return s
}

// checkDistance compares a distance answer with the reference, when the
// source has one, and with the first answer seen for the same source:
// cold, cached and coalesced answers must all agree.
func (p *servePlan) checkDistance(rq request, a answer, ver *verifier) {
	got := summary{reached: a.Reached, maxDist: a.MaxDist}
	if a.TargetDist != nil {
		got.targetDist = *a.TargetDist
	}
	want, ok := p.refs[rq.v]
	want.hash = 0
	p.mu.Lock()
	first, again := p.seen[rq.v]
	if !again {
		p.seen[rq.v] = got
	}
	p.mu.Unlock()
	if (ok || again) && ver.corruptOnce() {
		got.reached++
	}
	switch {
	case a.Src != uint32(rq.v) || a.TargetDist == nil:
		ver.check(false, "GET %s: answer for source %d without target_dist", rq.url, a.Src)
	case ok && got != want:
		ver.check(false, "GET %s: %+v, reference %+v", rq.url, got, want)
	case again && got != first:
		ver.check(false, "GET %s: %+v, an earlier answer said %+v", rq.url, got, first)
	default:
		ver.check(true, "")
	}
}

func fetch(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// round replays reqs against a fresh server with the given number of
// closed-loop clients (each sends its next request when the previous
// answer is complete) and returns the samples and the round's wall time.
func (p *servePlan) round(reqs []request, clients int, rec *julienne.Recorder, ver *verifier) ([]sample, float64, error) {
	ls, err := startServer(p.g, rec)
	if err != nil {
		return nil, 0, err
	}
	tp := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: tp}
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	sp := rec.StartSpan("round").Arg("parent", "window").Arg("clients", clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				samples[i] = p.get(client, ls.base, reqs[i], rec, ver)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	sp.End()
	tp.CloseIdleConnections()
	return samples, wall, ls.stop()
}

// serveWindow is the served workload's window: reps times, one round
// of the mixed sequence at P=nproc with nproc clients, then the block
// of cold requests from one client at GOMAXPROCS=1.
func (p *plan) serveWindow(reps int, rec *julienne.Recorder, ver *verifier, res *windowResult) error {
	sv := p.serving
	var start, m0, m1 runtime.MemStats
	runtime.ReadMemStats(&start)
	defer res.gcSince(&start)
	var blk []timing
	p.host.mark()
	for r := 0; r < reps; r++ {
		samples, wall, err := sv.round(sv.reqs, p.procs, rec, ver)
		if err != nil {
			return err
		}
		res.roundS = append(res.roundS, wall)
		blk = blk[:0]
		for _, s := range samples {
			res.allS = append(res.allS, s.seconds)
			switch {
			case s.cold:
				blk = append(blk, timing{key: int(s.src), raw: s.seconds})
			case s.cached:
				res.cachedS = append(res.cachedS, s.seconds)
			}
		}
		res.add(true, blk, p.host.scaleSince())

		runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&m0)
		samples, _, err = sv.round(sv.cold, 1, rec, ver)
		runtime.ReadMemStats(&m1)
		k := p.host.scaleSince()
		runtime.GOMAXPROCS(p.procs)
		if err != nil {
			return err
		}
		blk = blk[:0]
		for _, s := range samples {
			if s.cold {
				blk = append(blk, timing{key: int(s.src), raw: s.seconds})
			}
		}
		res.add(false, blk, k)
		res.allocP1 += m1.TotalAlloc - m0.TotalAlloc
		res.ops += len(sv.reqs) + len(sv.cold)
	}
	if len(res.timeP) == 0 || len(res.cachedS) == 0 || len(res.timeP1) != reps*len(sv.cold) {
		return fmt.Errorf("serve window: %d cold and %d cached answers in the mix, %d of %d cold answers in the P=1 blocks",
			len(res.timeP), len(res.cachedS), len(res.timeP1), reps*len(sv.cold))
	}
	return nil
}

// warmServer is the served workload's share of set-up: start the
// server and answer the warm-up requests.
func warmServer(g *julienne.CSR, path string, tr *julienne.Recorder) error {
	var err error
	span(tr, "setup.warmup", "setup", func() {
		var ls *liveServer
		if ls, err = startServer(g, nil); err != nil {
			return
		}
		for i := 0; i < warmUps && err == nil; i++ {
			var status int
			status, _, err = fetch(http.DefaultClient, fmt.Sprintf("%s%s?src=%d", ls.base, path, i))
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("warm-up request: status %d", status)
			}
		}
		http.DefaultClient.CloseIdleConnections()
		if serr := ls.stop(); err == nil {
			err = serr
		}
	})
	return err
}
