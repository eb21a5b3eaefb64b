// Command bench regenerates the repository's performance baseline:
//
//	bench [-smoke] [-out dir] [-reps n] [-seed s] [-http :9090] [-assert-fusion] [-assert-forks]
//
// It measures the bucket structure's hot paths and the four bucketed
// applications (k-core, ∆-stepping, wBFS, approximate set cover) at
// GOMAXPROCS ∈ {1, NumCPU} and writes BENCH_bucket.json and
// BENCH_algos.json into -out. Full-budget runs (the default; `make
// bench`) additionally re-measure the pre-arena go-test benchmarks so
// the files carry a before/after allocator comparison; -smoke (`make
// bench-smoke`) shrinks inputs to CI size and skips the comparison.
//
// The algos report includes the bucket-fusion ablation on the grid
// family (wbfs-fused, delta-stepping-fused vs their unfused
// counterparts; DESIGN.md §11). -assert-fusion turns the ablation into
// a gate: the run fails unless the fused entries extracted fewer
// bucket rounds (obs bucket.buckets_returned) than the unfused ones,
// with wbfs at least 3x fewer. -assert-forks gates the fork budget the
// same way, on counters only: wbfs on the grid family at procs > 1 may
// go through the helper pool (obs parallel.forked, reported per entry
// as forks_per_round) in only a small fraction of its rounds. CI's
// bench-smoke job runs with both flags.
//
// With -http the suite's merged telemetry (counters plus round-latency
// histograms from every instrumented run) is served live on the obs
// debug surface (/metrics, /debug/obs, /debug/pprof/), and the process
// keeps serving after the reports are written until interrupted.
//
// DESIGN.md §7 documents the report schema and the measurement
// methodology; cmd/experiments produces the paper-style tables and
// figures instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"julienne/internal/bench"
	"julienne/internal/obs"
)

func main() {
	smoke := flag.Bool("smoke", false, "CI-sized inputs, no before/after re-measurement")
	out := flag.String("out", ".", "output directory for BENCH_*.json")
	reps := flag.Int("reps", 0, "timing repetitions per configuration (default 5, 3 with -smoke)")
	seed := flag.Uint64("seed", 0, "workload seed (default 2017)")
	httpAddr := flag.String("http", "", "serve live /metrics, /debug/obs, /debug/pprof on this address while benchmarking; keeps serving after the run until interrupted")
	assertFusion := flag.Bool("assert-fusion", false, "fail unless the fused grid-family entries extract fewer bucket rounds than their unfused counterparts (wbfs: at least 3x fewer), judged by the obs bucket.buckets_returned counter")
	assertForks := flag.Bool("assert-forks", false, "fail if wbfs on the grid family forks in more than a small fraction of its rounds at procs > 1, judged by the obs parallel.forked counter")
	flag.Parse()

	cfg := bench.Config{Smoke: *smoke, Reps: *reps, Seed: *seed}
	serving := ""
	if *httpAddr != "" {
		cfg.Live = obs.NewRecorder()
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -http listen on %s: %v\n", *httpAddr, err)
			os.Exit(2)
		}
		serving = ln.Addr().String()
		srv := &http.Server{Handler: obs.ServeMux(cfg.Live)}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "bench: http server on %s: %v\n", serving, err)
			}
		}()
		fmt.Fprintf(os.Stderr, "bench: serving http://%s/metrics\n", serving)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	write := func(name string, rep *bench.Report) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		if err := rep.Write(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s (%d results)\n", path, len(rep.Results))
		fmt.Print(bench.FormatSummary(rep))
	}
	write("BENCH_bucket.json", bench.Bucket(cfg))
	algos := bench.Algos(cfg)
	write("BENCH_algos.json", algos)
	if *assertFusion {
		if err := bench.CheckFusionAblation(algos); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("fusion ablation: fused grid entries extract fewer bucket rounds than unfused (wbfs >= 3x)")
	}
	if *assertForks {
		checked, err := bench.CheckForkBudget(algos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("fork budget: %d wbfs/grid entries at procs > 1 fork in at most a small fraction of their rounds\n", checked)
	}

	if serving != "" {
		fmt.Fprintf(os.Stderr, "bench: run complete; still serving http://%s (interrupt to exit)\n", serving)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}
