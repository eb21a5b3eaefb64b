package obs

// Metric names are typed handles, not strings: every counter, gauge and
// histogram the in-tree instrumentation reports under is declared
// exactly once in this file, and the Recorder's write methods accept
// only these handle types. The name field is unexported, so a package
// outside obs cannot mint a handle for an unregistered name — ad-hoc
// drift on the exposition surface (Prometheus scrapes, /debug/obs, the
// bench reports) does not compile. The read side stays string-keyed
// (Counters, Histograms, HistSummary, ...): consumers look series up by
// the emitted name, which Name returns.

// Counter names a monotonically increasing counter.
type Counter struct{ name string }

// Gauge names a last-value-wins gauge.
type Gauge struct{ name string }

// Hist names a log-bucketed histogram series.
type Hist struct{ name string }

// Name returns the emitted metric name, the key of the read-side maps.
func (c Counter) Name() string { return c.name }

// Name returns the emitted metric name, the key of the read-side maps.
func (g Gauge) Name() string { return g.name }

// Name returns the emitted metric name, the key of the read-side maps.
func (h Hist) Name() string { return h.name }

// counters, gauges and hists are the handle table: the declarations
// below append to them at package initialization, so the table cannot
// drift from the handles that exist (names_test.go walks it).
var (
	counters []Counter
	gauges   []Gauge
	hists    []Hist
)

func newCounter(name string) Counter {
	c := Counter{name}
	counters = append(counters, c)
	return c
}

func newGauge(name string) Gauge {
	g := Gauge{name}
	gauges = append(gauges, g)
	return g
}

func newHist(name string) Hist {
	h := Hist{name}
	hists = append(hists, h)
	return h
}

// Bucket structure and Ligra layer.
var (
	// CtrBucketExtracted counts identifiers returned by NextBucket.
	CtrBucketExtracted = newCounter("bucket.extracted")
	// CtrBucketMoved counts identifiers physically inserted by
	// UpdateBuckets.
	CtrBucketMoved = newCounter("bucket.moved")
	// CtrBucketSkipped counts free (None-destination) updates.
	CtrBucketSkipped = newCounter("bucket.skipped")
	// CtrBucketReturned counts successful NextBucket calls.
	CtrBucketReturned = newCounter("bucket.buckets_returned")
	// CtrBucketRangeAdvances counts overflow unpacks (§3.3).
	CtrBucketRangeAdvances = newCounter("bucket.range_advances")
	// CtrEdgeMapSparse counts edgeMap invocations that took the
	// sparse/push direction.
	CtrEdgeMapSparse = newCounter("edgemap.sparse")
	// CtrEdgeMapDense counts edgeMap invocations that took the
	// dense/pull direction.
	CtrEdgeMapDense = newCounter("edgemap.dense")
	// CtrEdgeMapEdges accumulates the out-degree sum of the input
	// frontier per edgeMap call (the work bound of the sparse
	// direction, and the threshold quantity of Beamer's heuristic).
	CtrEdgeMapEdges = newCounter("edgemap.edges")
	// CtrParallelForked, CtrParallelInline and CtrParallelWakes are the
	// fork budget of the recorded rounds (parallel.ForkStats deltas,
	// summed by RecordRound): fork-join regions that went through the
	// helper pool, regions that ran inline on their caller, and parked
	// helpers woken.
	CtrParallelForked = newCounter("parallel.forked")
	CtrParallelInline = newCounter("parallel.inline")
	CtrParallelWakes  = newCounter("parallel.wakes")
	// GaugeEdgeMapLastDense is 1 when the most recent edgeMap call
	// chose the dense direction, 0 for sparse. Round observers read it
	// to label the round's traversal direction.
	GaugeEdgeMapLastDense = newGauge("edgemap.last_dense")

	// HistRoundLatencyNs is the per-round wall-clock latency in
	// nanoseconds, observed automatically by Recorder.RecordRound.
	HistRoundLatencyNs = newHist("round.latency_ns")
	// HistRoundFrontier is the per-round frontier size (identifiers
	// extracted/processed), observed automatically by RecordRound.
	HistRoundFrontier = newHist("round.frontier_size")
	// HistNextBucketNs is the duration of one bucket.NextBucket call.
	HistNextBucketNs = newHist("bucket.next_ns")
	// HistUpdateBucketsNs is the duration of one bucket.UpdateBuckets
	// call (including the ones NextBucket issues internally during
	// overflow redistribution).
	HistUpdateBucketsNs = newHist("bucket.update_ns")
	// HistEdgeMapEdges is the out-degree sum of each edgeMap input
	// frontier — the sparse-direction work bound, as a distribution.
	HistEdgeMapEdges = newHist("edgemap.frontier_edges")
	// HistOpLatencyNs is whole-operation latency in nanoseconds; the
	// CLIs observe one sample per measured run.
	HistOpLatencyNs = newHist("op.latency_ns")
)

// The serving layer (internal/serve, DESIGN.md §12). Latency
// histograms are per-endpoint so the load driver can report p50/p99
// for each.
var (
	// CtrServeRequests counts every admitted query.
	CtrServeRequests = newCounter("serve.requests")
	// CtrServeRejectedQueue counts 429s (admission queue full).
	CtrServeRejectedQueue = newCounter("serve.rejected_queue_full")
	// CtrServeRejectedClose counts 503s (server draining).
	CtrServeRejectedClose = newCounter("serve.rejected_closing")
	// CtrServeCanceled counts queries stopped by their deadline (504).
	CtrServeCanceled = newCounter("serve.canceled")
	// CtrServeCacheHits / CtrServeCacheMisses count result-cache
	// lookups on the SSSP read path.
	CtrServeCacheHits   = newCounter("serve.cache_hits")
	CtrServeCacheMisses = newCounter("serve.cache_misses")
	// CtrServeCoalesced counts requests that attached to another
	// request's in-flight computation instead of starting their own.
	CtrServeCoalesced = newCounter("serve.coalesced")
	// CtrServeJobsSubmitted / CtrServeJobsDone count async jobs.
	CtrServeJobsSubmitted = newCounter("serve.jobs_submitted")
	CtrServeJobsDone      = newCounter("serve.jobs_done")
	// GaugeServeInflight is the number of queries currently executing.
	GaugeServeInflight = newGauge("serve.inflight")
	// HistServeQueueWaitNs is time spent waiting for an admission slot.
	HistServeQueueWaitNs = newHist("serve.queue_wait_ns")
	// HistServeSSSPNs, HistServeWBFSNs, HistServeCorenessNs, and
	// HistServeJobNs are whole-request latencies per endpoint.
	HistServeSSSPNs     = newHist("serve.sssp.latency_ns")
	HistServeWBFSNs     = newHist("serve.wbfs.latency_ns")
	HistServeCorenessNs = newHist("serve.coreness.latency_ns")
	HistServeJobNs      = newHist("serve.job.latency_ns")
)
