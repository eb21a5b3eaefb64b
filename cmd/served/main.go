// Command served is the graph analytics service: it loads (or
// generates) one graph at startup and serves concurrent point queries
// and async analytics jobs over JSON/HTTP (DESIGN.md §12).
//
// Usage:
//
//	served -addr :8090 -file graph.bin [-workers 8] [-queue 32]
//	       [-cache 64] [-query-timeout 10s] [-delta 32768]
//	       [graph flags: -gen/-n/-m/-symmetric/-weights ...]
//
// Endpoints (see GET / for the index):
//
//	GET  /sssp?src=N[&delta=D][&fusion=1][&target=M][&timeout_ms=T]
//	GET  /wbfs?src=N            point shortest paths (coalesced, cached)
//	GET  /coreness?v=N          coreness lookup (computed once, cached)
//	POST /jobs/setcover         async jobs with GET /jobs/{id} polling
//	POST /jobs/densest
//	GET  /metrics /debug/obs    Prometheus text + JSON debug surface
//
// Saturation returns typed backpressure: 429 (queue full) and 503
// (draining); queries that outlive their deadline return 504 with the
// kernel's partial-progress stats. SIGINT/SIGTERM drains gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"julienne/internal/cli"
	"julienne/internal/gen"
	"julienne/internal/obs"
	"julienne/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address (use :0 to pick a free port)")
	workers := flag.Int("workers", 0, "max concurrently-executing queries (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queries waiting for a slot before 429 (0 = 4x workers)")
	cache := flag.Int("cache", 64, "SSSP result cache entries")
	jobWorkers := flag.Int("job-workers", 1, "async job worker pool size")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "clamp for client-supplied ?timeout_ms")
	delta := flag.Int64("delta", 32768, "default delta for /sssp")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain budget before in-flight queries are canceled")
	gf := cli.Register(flag.CommandLine)
	flag.Parse()

	g, err := gf.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !g.Weighted() {
		// SSSP endpoints need weights; default to the paper's wBFS
		// weighting, as `julienne sssp` does.
		g = gen.LogWeights(g, *gf.Seed+1)
	}
	fmt.Fprintln(os.Stderr, "served:", cli.Describe(g))

	rec := obs.NewRecorder()
	srv := serve.New(serve.Config{
		Graph:          g,
		Recorder:       rec,
		MaxInFlight:    *workers,
		MaxQueued:      *queue,
		CacheSize:      *cache,
		JobWorkers:     *jobWorkers,
		DefaultTimeout: *queryTimeout,
		MaxTimeout:     *maxTimeout,
		DefaultDelta:   *delta,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "served: listen on %s: %v\n", *addr, err)
		os.Exit(2)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "served: serving http://%s/ (metrics on /metrics)\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "served: http server: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "served: %v: draining (budget %v)\n", s, *drain)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections, drain in-flight queries (canceling
	// them if the budget runs out), then close the listener fully.
	_ = srv.Close(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "served: shutdown: %v\n", err)
	}
	_ = httpSrv.Close()
	fmt.Fprintln(os.Stderr, "served: drained, exiting")
}
