package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"julienne/internal/obs"
)

func recorder(t *testing.T, of *obsFlags) *obs.Recorder {
	t.Helper()
	rec, err := of.recorder(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestObsFlagsDisabled(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	of := registerObs(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if recorder(t, of) != nil {
		t.Fatal("no flags set should mean nil recorder")
	}
	var buf bytes.Buffer
	if err := of.finish(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Finish with telemetry off wrote %q", buf.String())
	}
}

func TestObsFlagsTraceAndStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	of := registerObs(fs)
	if err := fs.Parse([]string{"-trace", path, "-stats"}); err != nil {
		t.Fatal(err)
	}
	rec := recorder(t, of)
	if rec == nil {
		t.Fatal("trace flag should enable the recorder")
	}
	rec.Add(obs.CtrBucketMoved, 7)
	rec.Phase("work", func() {})
	rec.RecordRound(obs.RoundMetrics{Algo: "kcore", Round: 1, FrontierSize: 3})

	var buf bytes.Buffer
	if err := of.finish(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"telemetry counters", obs.CtrBucketMoved.Name(), "per-round metrics", "kcore"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	// The "work" span, the round's span and counter sample, and
	// counters.final.
	if len(tf.TraceEvents) != 4 {
		t.Fatalf("trace events=%d, want 4", len(tf.TraceEvents))
	}
}

// TestStatsSaysRoundsRetained: when a run outgrows the flight ring,
// -stats says how many of its rounds the table is drawn from.
func TestStatsSaysRoundsRetained(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	of := registerObs(fs)
	if err := fs.Parse([]string{"-stats"}); err != nil {
		t.Fatal(err)
	}
	rec := recorder(t, of)
	const total = 5000
	for i := 1; i <= total; i++ {
		rec.RecordRound(obs.RoundMetrics{Algo: "wbfs", Round: int64(i), FrontierSize: 1})
	}
	kept := len(rec.Rounds())
	if kept >= total {
		t.Fatalf("the ring kept all %d rounds; the test needs a run that outgrows it", total)
	}
	var buf bytes.Buffer
	if err := of.finish(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("(%d of %d rounds retained)", kept, total); !strings.Contains(buf.String(), want) {
		t.Fatalf("stats output missing %q:\n%s", want, buf.String())
	}
}

func TestObsFlagsHTTP(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	of := registerObs(fs)
	if err := fs.Parse([]string{"-http", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	rec := recorder(t, of)
	if rec == nil {
		t.Fatal("-http should enable the recorder")
	}
	addr := of.httpAddr
	if addr == "" {
		t.Fatal("-http should bind a listener and report its address")
	}
	rec.RecordRound(obs.RoundMetrics{Algo: "kcore", Round: 1, FrontierSize: 3,
		Duration: time.Millisecond})
	rec.ObserveDuration(obs.HistOpLatencyNs, 2*time.Millisecond)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"julienne_round_latency_ns_count 1",
		"julienne_op_latency_ns_count 1",
		`julienne_round_latency_ns_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp2, err := http.Get("http://" + addr + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var dump struct {
		Flight []obs.FlightRecord `json:"flight"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/obs decode: %v", err)
	}
	if len(dump.Flight) != 1 || dump.Flight[0].Algo != "kcore" {
		t.Fatalf("/debug/obs flight tail = %+v", dump.Flight)
	}
}

// TestPrintCanceled pins the partial-run flight dump path run takes on
// exit status 3.
func TestPrintCanceled(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	of := registerObs(fs)
	if err := fs.Parse([]string{"-stats"}); err != nil {
		t.Fatal(err)
	}
	rec := recorder(t, of)
	rec.RecordRound(obs.RoundMetrics{Algo: "sssp", Round: 1, FrontierSize: 9})
	err := rec.NewCanceled("sssp", 1, context.Canceled)
	var buf bytes.Buffer
	of.printCanceled(&buf, err)
	if !strings.Contains(buf.String(), "flight recorder") || !strings.Contains(buf.String(), "sssp") {
		t.Fatalf("PrintCanceled output:\n%s", buf.String())
	}
	buf.Reset()
	of.printCanceled(&buf, os.ErrNotExist) // not a Canceled: silent
	if buf.Len() != 0 {
		t.Fatalf("non-Canceled error should print nothing, got %q", buf.String())
	}
}
