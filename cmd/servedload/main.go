// Command servedload drives a running served instance with concurrent
// queries and reports per-endpoint throughput and latency quantiles:
// the driver of the serve-smoke check. It commits no numbers; the
// gated benchmark's serve-zipf workload reports cold and cached latency
// apart.
//
// Usage:
//
//	servedload -addr 127.0.0.1:8090 [-duration 5s] [-conc 8]
//	           [-mix sssp,wbfs,coreness] [-sources 64] [-seed 2017]
//	           [-jobs] [-out report.json]
//
// Sources are drawn from a bounded pool so the server's coalescing and
// cache paths are exercised alongside cold computations; -sources 0
// draws from the whole vertex range. Backpressure responses (429/503)
// are counted separately from errors — under deliberate overload they
// are the server working as designed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"julienne/internal/harness"
	"julienne/internal/obs"
	"julienne/internal/rng"
)

type endpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Rejected int64   `json:"rejected"` // 429/503 backpressure
	Timeouts int64   `json:"timeouts"` // 504 deadline cancellations
	QPS      float64 `json:"qps"`
	P50Ns    int64   `json:"p50_ns"`
	P99Ns    int64   `json:"p99_ns"`
	MaxNs    int64   `json:"max_ns"`
}

type report struct {
	Addr        string                    `json:"addr"`
	DurationSec float64                   `json:"duration_sec"`
	Concurrency int                       `json:"concurrency"`
	Endpoints   map[string]*endpointStats `json:"endpoints"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "served address (host:port)")
	duration := flag.Duration("duration", 5*time.Second, "how long to drive load")
	conc := flag.Int("conc", 8, "concurrent client workers")
	mix := flag.String("mix", "sssp,wbfs,coreness", "comma-separated endpoint mix workers cycle through")
	sources := flag.Int("sources", 64, "distinct source vertices to draw from (0 = whole graph)")
	seed := flag.Uint64("seed", 2017, "source-sampling seed")
	jobs := flag.Bool("jobs", false, "also submit one setcover and one densest job and poll them")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	flag.Parse()

	base := "http://" + *addr
	n, err := vertexCount(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servedload: %s: %v\n", base, err)
		os.Exit(2)
	}
	pool := *sources
	if pool <= 0 || pool > n {
		pool = n
	}

	endpoints := strings.Split(*mix, ",")
	rec := obs.NewRecorder()
	stats := map[string]*endpointStats{}
	var mu sync.Mutex
	for _, ep := range endpoints {
		stats[ep] = &endpointStats{}
	}

	client := &http.Client{}
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	var wg sync.WaitGroup
	elapsed := harness.Time(func() {
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				r := rng.New(*seed + uint64(worker))
				for i := 0; ctx.Err() == nil; i++ {
					ep := endpoints[i%len(endpoints)]
					src := r.IntN(pool)
					var url string
					switch ep {
					case "sssp":
						url = fmt.Sprintf("%s/sssp?src=%d", base, src)
					case "wbfs":
						url = fmt.Sprintf("%s/wbfs?src=%d", base, src)
					case "coreness":
						url = fmt.Sprintf("%s/coreness?v=%d", base, src)
					default:
						fmt.Fprintf(os.Stderr, "servedload: unknown endpoint %q in -mix\n", ep)
						os.Exit(2)
					}
					start := rec.Clock()
					status, err := get(ctx, client, url)
					if err == nil && status == http.StatusOK {
						// Quantiles cover served queries only; rejected
						// (429/503) and timed-out (504) requests are
						// counted but would skew the latency picture.
						rec.ObserveSince(histFor(ep), start)
					}
					mu.Lock()
					st := stats[ep]
					st.Requests++
					switch {
					case err != nil && ctx.Err() != nil:
						st.Requests-- // cut off by the run deadline, not a sample
					case err != nil:
						st.Errors++
					case status == http.StatusTooManyRequests, status == http.StatusServiceUnavailable:
						st.Rejected++
					case status == http.StatusGatewayTimeout:
						st.Timeouts++
					case status != http.StatusOK:
						st.Errors++
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	})

	if *jobs {
		driveJobs(base, client)
	}

	rep := report{Addr: *addr, DurationSec: elapsed.Seconds(), Concurrency: *conc, Endpoints: stats}
	for _, ep := range endpoints {
		st := stats[ep]
		ok := st.Requests - st.Errors - st.Rejected
		if elapsed > 0 {
			st.QPS = float64(ok) / elapsed.Seconds()
		}
		sum := rec.HistSummary(histFor(ep).Name())
		st.P50Ns, st.P99Ns, st.MaxNs = sum.P50, sum.P99, sum.Max
	}
	writeReport(rep, *out)
}

// histFor maps an endpoint to the latency histogram the driver observes
// its client-side latencies under.
func histFor(ep string) obs.Hist {
	switch ep {
	case "sssp":
		return obs.HistServeSSSPNs
	case "wbfs":
		return obs.HistServeWBFSNs
	case "coreness":
		return obs.HistServeCorenessNs
	default:
		return obs.HistOpLatencyNs
	}
}

func writeReport(rep report, out string) {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servedload: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "servedload: %v\n", err)
		os.Exit(2)
	}
}

func get(ctx context.Context, client *http.Client, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// vertexCount asks /healthz for the graph size.
func vertexCount(base string) (int, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Vertices int `json:"vertices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	if h.Vertices <= 0 {
		return 0, fmt.Errorf("server reports %d vertices", h.Vertices)
	}
	return h.Vertices, nil
}

// driveJobs submits one of each async job and polls both to a
// terminal state, printing the outcomes to stderr.
func driveJobs(base string, client *http.Client) {
	ids := []string{}
	for _, kind := range []string{"setcover", "densest"} {
		resp, err := client.Post(base+"/jobs/"+kind, "", nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servedload: submit %s: %v\n", kind, err)
			continue
		}
		var info struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || info.ID == "" {
			fmt.Fprintf(os.Stderr, "servedload: submit %s: status %d\n", kind, resp.StatusCode)
			continue
		}
		ids = append(ids, info.ID)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for {
			resp, err := client.Get(base + "/jobs/" + id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "servedload: poll %s: %v\n", id, err)
				return
			}
			var info struct {
				Status string `json:"status"`
			}
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "servedload: poll %s: %v\n", id, err)
				return
			}
			if info.Status == "done" || info.Status == "failed" || info.Status == "canceled" {
				fmt.Fprintf(os.Stderr, "servedload: %s -> %s\n", id, info.Status)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}
