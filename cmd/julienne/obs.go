package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"os/signal"
	"syscall"

	"julienne/internal/harness"
	"julienne/internal/obs"
)

// obsFlags selects the runtime-telemetry outputs of a kernel run: a
// Chrome trace file, a counter/round summary, a pprof endpoint, and the
// live HTTP debug surface (obs.ServeMux).
type obsFlags struct {
	Trace *string
	Stats *bool
	Pprof *string
	HTTP  *string

	rec      *obs.Recorder
	httpAddr string
}

// registerObs installs the telemetry flags on fs.
func registerObs(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		Trace: fs.String("trace", "", "write Chrome trace-event JSON to this file (chrome://tracing, Perfetto)"),
		Stats: fs.Bool("stats", false, "print telemetry counters, histogram summaries, and a per-round summary"),
		Pprof: fs.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)"),
		HTTP: fs.String("http", "", "serve /metrics (Prometheus text), /debug/obs (JSON), and /debug/pprof "+
			"on this address (e.g. :9090); implies telemetry and keeps serving after the run until interrupted"),
	}
}

// recorder returns the recorder the flags call for — nil when telemetry
// is off, so algorithms run uninstrumented. It also starts the pprof
// server if -pprof was given and the debug surface if -http was given;
// the error is the -http listener failing to bind.
func (of *obsFlags) recorder(stderr io.Writer) (*obs.Recorder, error) {
	if *of.Pprof != "" {
		addr := *of.Pprof
		go func() { fmt.Fprintf(stderr, "pprof server on %s: %v\n", addr, http.ListenAndServe(addr, nil)) }()
		fmt.Fprintf(stderr, "pprof listening on %s (go tool pprof http://localhost%s/debug/pprof/profile)\n",
			addr, addr)
	}
	if *of.Trace == "" && !*of.Stats && *of.HTTP == "" {
		return nil, nil
	}
	of.rec = obs.NewRecorder()
	if *of.HTTP != "" {
		ln, err := net.Listen("tcp", *of.HTTP)
		if err != nil {
			return nil, fmt.Errorf("-http listen on %s: %w", *of.HTTP, err)
		}
		of.httpAddr = ln.Addr().String()
		go func() { fmt.Fprintf(stderr, "obs: http server: %v\n", http.Serve(ln, obs.ServeMux(of.rec))) }()
		fmt.Fprintf(stderr, "obs: serving http://%s/metrics /debug/obs /debug/pprof/\n", of.httpAddr)
	}
	return of.rec, nil
}

// crashDump is deferred by run before the recorder exists: on panic it
// writes the flight-recorder tail to stderr — the post-mortem record of
// the rounds leading up to the crash — and re-panics so the exit status
// and stack trace are unchanged. A no-op without a recorder or without
// a panic.
func (of *obsFlags) crashDump(stderr io.Writer) {
	r := recover()
	if r == nil {
		return
	}
	if of.rec != nil {
		fmt.Fprintf(stderr, "panic: %v\n\n", r)
		obs.WriteFlightText(stderr, of.rec.FlightTail(16))
	}
	panic(r)
}

// printCanceled writes the flight tail carried by a cancellation error
// to w, so a timed-out run leaves a post-mortem of its last rounds — or
// says it had none. No-op when err carries no *obs.Canceled or
// telemetry is off.
func (of *obsFlags) printCanceled(w io.Writer, err error) {
	var c *obs.Canceled
	if errors.As(err, &c) && of.rec != nil {
		c.WriteTail(w)
	}
}

// wait blocks until SIGINT/SIGTERM if the -http server is running, so
// one-shot runs remain scrapeable after the measured work is done.
// Without -http it returns immediately.
func (of *obsFlags) wait(stderr io.Writer) {
	if of.httpAddr == "" {
		return
	}
	fmt.Fprintf(stderr, "obs: run complete; still serving http://%s (interrupt to exit)\n", of.httpAddr)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

// maxRoundRows caps the per-round table so -stats stays readable on
// long peelings.
const maxRoundRows = 64

// finish writes the trace file and prints the -stats report. Call it
// once after the measured work completes.
func (of *obsFlags) finish(w io.Writer) error {
	if of.rec == nil {
		return nil
	}
	if *of.Trace != "" {
		f, err := os.Create(*of.Trace)
		if err != nil {
			return err
		}
		if err := errors.Join(of.rec.WriteTrace(f), f.Close()); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d events -> %s\n", len(of.rec.Events()), *of.Trace)
	}
	if *of.Stats {
		of.printStats(w)
	}
	return nil
}

func (of *obsFlags) printStats(w io.Writer) {
	fmt.Fprintln(w, "\ntelemetry counters:")
	t := harness.NewTable("counter", "value")
	for _, name := range of.rec.CounterNames() {
		t.AddRow(name, of.rec.Counter(name))
	}
	t.Render(w)

	if names := of.rec.HistogramNames(); len(names) > 0 {
		fmt.Fprintln(w, "\nhistograms:")
		t = harness.NewTable("histogram", "count", "mean", "p50", "p90", "p99", "max")
		for _, name := range names {
			s := of.rec.HistSummary(name)
			t.AddRow(name, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
		}
		t.Render(w)
	}

	rounds := of.rec.Rounds()
	if len(rounds) == 0 {
		return
	}
	retained := fmt.Sprintf("%d rounds", len(rounds))
	if total := of.rec.NumRounds(); total > len(rounds) {
		retained = fmt.Sprintf("%d of %d rounds retained", len(rounds), total)
	}
	fmt.Fprintf(w, "\nper-round metrics (%s):\n", retained)
	t = harness.NewTable("round", "algo", "bucket", "frontier", "edges",
		"extracted", "moved", "skipped", "time")
	step := 1
	if len(rounds) > maxRoundRows {
		step = (len(rounds) + maxRoundRows - 1) / maxRoundRows
		fmt.Fprintf(w, "(showing every %d-th round)\n", step)
	}
	for i := 0; i < len(rounds); i += step {
		m := rounds[i]
		t.AddRow(m.Round, m.Algo, m.Bucket, m.FrontierSize, m.EdgesTraversed,
			m.Extracted, m.Moved, m.Skipped, m.Duration)
	}
	t.Render(w)
}
