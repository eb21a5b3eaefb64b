// Command servedload drives a running served instance with concurrent
// queries and reports per-endpoint request counts and throughput: the
// smoke driver of the serve-smoke check. It measures no latency; the
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
	"julienne/internal/rng"
)

type endpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Rejected int64   `json:"rejected"` // 429/503 backpressure
	Timeouts int64   `json:"timeouts"` // 504 deadline cancellations
	QPS      float64 `json:"qps"`
}

// queries maps each -mix endpoint to its query path, given a vertex.
var queries = map[string]string{
	"sssp":     "/sssp?src=%d",
	"wbfs":     "/wbfs?src=%d",
	"coreness": "/coreness?v=%d",
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

	endpoints := strings.Split(*mix, ",")
	stats := map[string]*endpointStats{}
	var mu sync.Mutex
	for _, ep := range endpoints {
		if queries[ep] == "" {
			fmt.Fprintf(os.Stderr, "servedload: unknown endpoint %q in -mix\n", ep)
			os.Exit(2)
		}
		stats[ep] = &endpointStats{}
	}

	base := "http://" + *addr
	client := &http.Client{}
	var health struct {
		Vertices int `json:"vertices"`
	}
	_, err := call(context.Background(), client, http.MethodGet, base+"/healthz", &health)
	if err != nil || health.Vertices <= 0 {
		fmt.Fprintf(os.Stderr, "servedload: %s/healthz: %d vertices, %v\n", base, health.Vertices, err)
		os.Exit(2)
	}
	pool := *sources
	if pool <= 0 || pool > health.Vertices {
		pool = health.Vertices
	}

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
					status, err := call(ctx, client, http.MethodGet, base+fmt.Sprintf(queries[ep], r.IntN(pool)), nil)
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

	for _, st := range stats {
		if elapsed > 0 {
			st.QPS = float64(st.Requests-st.Errors-st.Rejected) / elapsed.Seconds()
		}
	}
	rep := report{Addr: *addr, DurationSec: elapsed.Seconds(), Concurrency: *conc, Endpoints: stats}
	if err := writeReport(rep, *out); err != nil {
		fmt.Fprintf(os.Stderr, "servedload: %v\n", err)
		os.Exit(2)
	}
}

func writeReport(rep report, out string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// call sends one request and decodes the JSON reply into v, or discards
// the reply when v is nil.
func call(ctx context.Context, client *http.Client, method, url string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode, err
}

// driveJobs submits one of each async job and polls both to a
// terminal state, printing the outcomes to stderr.
func driveJobs(base string, client *http.Client) {
	ctx := context.Background()
	ids := []string{}
	for _, kind := range []string{"setcover", "densest"} {
		var info struct {
			ID string `json:"id"`
		}
		status, err := call(ctx, client, http.MethodPost, base+"/jobs/"+kind, &info)
		if err != nil || info.ID == "" {
			fmt.Fprintf(os.Stderr, "servedload: submit %s: status %d: %v\n", kind, status, err)
			continue
		}
		ids = append(ids, info.ID)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for {
			var info struct {
				Status string `json:"status"`
			}
			if _, err := call(ctx, client, http.MethodGet, base+"/jobs/"+id, &info); err != nil {
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
