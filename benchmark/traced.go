package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"julienne"
)

// Counts of the traced pass.
const (
	tracedOps   = 5 // traced kernel calls at P=nproc, for layer times
	directColds = 8 // sources whose cold requests are timed against direct kernel calls,
	directReps  = 3 // each called this often
	handlerReps = 200
)

// tracedPass measures the layers, from outside: an untraced baseline of
// direct kernel calls, the same calls with a recorder, probes of the
// bucket, ligra and parallel layers over the workload's own graph, and
// rounds of requests against a server with the recorder attached.
func tracedPass(p *plan, procs int, tr *julienne.Recorder, ver *verifier) ([]metric, error) {
	in := p.in
	baseReps := max(3, p.reps/2)
	if p.w.served {
		baseReps = 2 * block
	}
	if p.cfg.smoke {
		baseReps = 3
	}
	var base windowResult
	span(tr, "window.untraced", "run", func() { p.kernelWindow(baseReps, nil, ver, &base) })
	hiPct, hi := hiPercentile(raws(base.timeP))
	speedup := fastDecileByInput(base.timeP1, scaledOf) / fastDecileByInput(base.timeP, scaledOf)

	// Layer times beneath an operation come from the recorder the
	// kernels already report to. The traced operations all run from the
	// first source, and are compared with the untraced ones that did.
	var traced, untraced []float64
	for i := 0; i < tracedOps; i++ {
		traced = append(traced, p.timedOp(i*len(p.sources), tr, ver).raw)
	}
	for _, t := range base.timeP {
		if t.key == 0 {
			untraced = append(untraced, t.raw)
		}
	}
	hists := tr.Histograms()
	nextS := float64(hists["bucket.next_ns"].Sum) / 1e9 / tracedOps
	updateS := float64(hists["bucket.update_ns"].Sum) / 1e9 / tracedOps
	var roundUS []float64
	for _, r := range tr.Rounds() {
		roundUS = append(roundUS, float64(r.Duration.Nanoseconds())/1e3)
	}
	roundP99, _ := percentile(roundUS, 99)

	// Counts come from one call at GOMAXPROCS=1, where they repeat
	// exactly for a given seed.
	counts := julienne.NewRecorder()
	runtime.GOMAXPROCS(1)
	r := p.w.op(in.g, p.sources[0], counts)
	ver.checkResult(r, p.want[0], p.w.name+" at GOMAXPROCS=1")
	runtime.GOMAXPROCS(procs)
	ch := counts.Histograms()

	m := []metric{
		{"gen.build_s", in.genS, "s"},
		{"graph.vertices", float64(in.g.NumVertices()), "count"},
		{"graph.edges", float64(in.g.NumEdges()), "count"},
		{"graphio.save_s", in.saveS, "s"},
		{"graphio.load_s", in.loadS, "s"},
		{"graphio.bytes", float64(in.fileBytes), "bytes"},
		{"algo.rounds", float64(r.rounds), "count"},
		{"algo.op_p50_s", median(raws(base.timeP)), "s"},
		{"algo.op_hi_s", hi, "s"},
		{"algo.op_hi_pct", hiPct, "%"},
		{"algo.op_p1_p50_s", median(raws(base.timeP1)), "s"},
		{"algo.round_p50_us", median(roundUS), "us"},
		{"algo.round_p99_us", roundP99, "us"},
		{"algo.edges_traversed", float64(r.edges), "count"},
		{"algo.relaxations", float64(r.relaxations), "count"},
		{"algo.residual_s", mean(traced) - nextS - updateS, "s"},
		{"bucket.next_s", nextS, "s"},
		{"bucket.update_s", updateS, "s"},
		{"bucket.next_calls", float64(ch["bucket.next_ns"].Count), "count"},
		{"bucket.update_calls", float64(ch["bucket.update_ns"].Count), "count"},
		{"bucket.extracted", float64(r.bucket.Extracted), "count"},
		{"bucket.moved", float64(r.bucket.Moved), "count"},
		{"bucket.skipped", float64(r.bucket.Skipped), "count"},
		{"bucket.range_advances", float64(r.bucket.RangeAdvances), "count"},
		{"bucket.useful_ratio", ratio(r.bucket.Extracted, r.bucket.Extracted+r.bucket.Skipped), "ratio"},
		{"parallel.speedup", speedup, "ratio"},
		{"parallel.efficiency", speedup / float64(procs), "ratio"},
		{"obs.trace_overhead_ratio", fastDecileMean(traced) / fastDecileMean(untraced), "ratio"},
		{"host.probe_ms", fastDecileMean(p.host.probes) * 1e3, "ms"},
		{"host.slowdown", fastDecileMean(p.host.probes) / refNominalS, "ratio"},
		{"runtime.gc_cycles_per_op", float64(base.gcCycles) / float64(base.ops), "count"},
		{"runtime.gc_pause_ms_per_op", float64(base.gcPauseNs) / 1e6 / float64(base.ops), "ms"},
	}
	m = append(m, probes(in.g, p.cfg.smoke, tr)...)
	sm, err := serveLayer(p, tr, ver)
	return append(m, sm...), err
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serveLayer measures the serving layer over the plan's weighted graph:
// rounds of the mixed sequence against a server reporting to tr, direct
// calls of the kernel behind its cold answers, and the handler without
// a socket.
func serveLayer(p *plan, tr *julienne.Recorder, ver *verifier) ([]metric, error) {
	sv := p.serving
	rounds := 1
	if p.w.served {
		rounds = max(2, p.reps/2)
	}
	before := tr.Counters()
	var cached, all, qps []float64
	var cold []timing
	for r := 0; r < rounds; r++ {
		samples, wall, err := sv.round(sv.reqs, p.procs, tr, ver)
		if err != nil {
			return nil, err
		}
		qps = append(qps, float64(len(samples))/wall)
		for _, s := range samples {
			all = append(all, s.seconds*1e3)
			switch {
			case s.cold:
				cold = append(cold, timing{key: int(s.src), raw: s.seconds * 1e3})
			case s.cached:
				cached = append(cached, s.seconds*1e3)
			}
		}
	}
	if len(cold) == 0 || len(cached) == 0 {
		return nil, fmt.Errorf("serve layer: %d cold and %d cached answers; the mix needs both", len(cold), len(cached))
	}
	after := tr.Counters()
	ctr := func(name string) float64 { return float64(after[name] - before[name]) }

	// The kernel behind a cold answer, called directly from the first
	// sources that were answered cold: what is left of their cold
	// latency is the serving layer's.
	kernel := deltaOp
	if sv.path == "/wbfs" {
		kernel = wbfsOp
	}
	var direct, viaServer []timing
	for _, c := range cold {
		if slices.ContainsFunc(direct, func(t timing) bool { return t.key == c.key }) {
			continue
		}
		if len(direct) == directColds*directReps {
			break
		}
		for i := 0; i < directReps; i++ {
			d := span(tr, "probe.serve_direct", "serve", func() { kernel(sv.g, julienne.Vertex(c.key), nil) })
			direct = append(direct, timing{key: c.key, raw: d.Seconds() * 1e3})
		}
	}
	for _, c := range cold {
		if slices.ContainsFunc(direct, func(t timing) bool { return t.key == c.key }) {
			viaServer = append(viaServer, c)
		}
	}

	// The handler without the socket, on answers the cache holds.
	ls, err := startServer(sv.g, nil)
	if err != nil {
		return nil, err
	}
	hot := sv.distanceRequest(sv.hot[0])
	handle := func(url string) float64 {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rw := httptest.NewRecorder()
		t0 := time.Now()
		ls.srv.Handler().ServeHTTP(rw, req)
		d := time.Since(t0)
		ver.check(rw.Code == http.StatusOK, "handler %s: status %d", url, rw.Code)
		return float64(d.Nanoseconds()) / 1e3
	}
	handle(hot.url) // fills the cache
	var plain, full []float64
	span(tr, "probe.serve_handler", "serve", func() {
		for i := 0; i < handlerReps; i++ {
			plain = append(plain, handle(hot.url))
		}
		for i := 0; i < handlerReps/10; i++ {
			full = append(full, handle(hot.url+"&full=1"))
		}
	})
	if err := ls.stop(); err != nil {
		return nil, err
	}

	hiPct, hi := hiPercentile(all)
	cachedMS, handlerUS := median(cached), median(plain)
	return []metric{
		{"serve.requests", ctr("serve.requests"), "count"},
		{"serve.hit_ratio", ctr("serve.cache_hits") / (ctr("serve.cache_hits") + ctr("serve.cache_misses")), "ratio"},
		{"serve.coalesced_ratio", ctr("serve.coalesced") / (ctr("serve.cache_hits") + ctr("serve.cache_misses")), "ratio"},
		{"serve.rejected", ctr("serve.rejected_queue_full") + ctr("serve.rejected_closing"), "count"},
		{"serve.canceled", ctr("serve.canceled"), "count"},
		{"serve.queue_wait_p50_us", float64(tr.HistSummary("serve.queue_wait_ns").P50) / 1e3, "us"},
		{"serve.qps", mean(sorted(qps)[max(0, len(qps)-2):]), "1/s"},
		{"serve.cold_ms", fastDecileByInput(cold, rawOf), "ms"},
		{"serve.cached_ms", cachedMS, "ms"},
		{"serve.req_hi_ms", hi, "ms"},
		{"serve.req_hi_pct", hiPct, "%"},
		{"serve.overhead_ms", fastDecileByInput(viaServer, rawOf) - fastDecileByInput(direct, rawOf), "ms"},
		{"serve.handler_cached_us", handlerUS, "us"},
		{"serve.net_overhead_us", cachedMS*1e3 - handlerUS, "us"},
		{"serve.full_encode_ms", (median(full) - handlerUS) / 1e3, "ms"},
	}, nil
}
