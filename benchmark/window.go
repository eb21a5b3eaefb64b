package main

import (
	"fmt"
	"math"
	"runtime"

	"julienne"
)

// plan is one run's fixed work: the inputs, how many operations the
// window holds, and the references they are checked against.
type plan struct {
	w     *workload
	in    *input
	cfg   config
	procs int
	host  *hostProbe
	// reps is the number of (P=nproc, P=1) operation pairs in the
	// window (rounds, for the served workload).
	reps int
	// sources are the kernel's inputs, want the reference hash of each:
	// direct kernel call i runs from sources[i%len(sources)].
	sources []julienne.Vertex
	want    []uint64
	// serving is the request plan over the weighted graph; set for the
	// served workload and for traced passes, which measure the serving
	// layer on every workload's graph.
	serving *servePlan
}

// block is how many operations run at one GOMAXPROCS before switching:
// P=nproc and P=1 alternate so that both sample the whole window and a
// slow spell of the host cannot land on one of them alone.
const block = 10

func newPlan(w *workload, in *input, cfg config, host *hostProbe) (*plan, error) {
	p := &plan{w: w, in: in, cfg: cfg, procs: runtime.GOMAXPROCS(0), host: host}
	p.reps = max(1, int(math.Round(float64(cfg.seconds)*w.pairsPerSecond)))
	if cfg.smoke {
		p.reps = 3
	}
	if w.served || cfg.trace {
		g := in.g
		if !g.Weighted() {
			g = julienne.HeavyWeights(g, cfg.seed+1)
		}
		var err error
		if p.serving, err = newServePlan(g, w, cfg); err != nil {
			return nil, err
		}
	}
	if w.served {
		// Direct kernel calls, which only the traced pass makes here, run
		// from the hottest sources of the request mix.
		p.sources = p.serving.hot[:min(4, len(p.serving.hot))]
		for _, src := range p.sources {
			p.want = append(p.want, p.serving.refs[src].hash)
		}
		return p, nil
	}
	// The sources are the lowest-numbered vertices vertex 0 reaches: a
	// source outside the giant component would be a different, trivial
	// operation.
	first, err := w.ref(in.g, 0)
	if err != nil {
		return nil, err
	}
	p.sources, p.want = []julienne.Vertex{0}, []uint64{first.hash()}
	for v := 1; len(p.sources) < w.sources && v < len(first.dist); v++ {
		if first.dist[v] == julienne.UnreachableDist {
			continue
		}
		ref, err := w.ref(in.g, julienne.Vertex(v))
		if err != nil {
			return nil, err
		}
		p.sources, p.want = append(p.sources, julienne.Vertex(v)), append(p.want, ref.hash())
	}
	return p, nil
}

// timing is one timed operation: key names the input it ran on (the
// index or the number of its source), raw is what the clock read, and
// scaled is raw in seconds of the nominal host (host.go).
type timing struct {
	key         int
	raw, scaled float64
}

// fastDecileByInput is the gated statistic: the fast-decile mean of the
// operations on each input, averaged over the inputs. Inputs differ in
// cost (one source's shortest-path tree is not another's), and a fast
// decile over their pooled samples would just pick the cheapest input.
func fastDecileByInput(ts []timing, value func(timing) float64) float64 {
	byKey := map[int][]float64{}
	for _, t := range ts {
		byKey[t.key] = append(byKey[t.key], value(t))
	}
	sum := 0.0
	for _, xs := range byKey {
		sum += fastDecileMean(xs)
	}
	return sum / float64(len(byKey))
}

func scaledOf(t timing) float64 { return t.scaled }
func rawOf(t timing) float64    { return t.raw }

func raws(ts []timing) []float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = t.raw
	}
	return xs
}

// windowResult holds the samples of one measured window.
type windowResult struct {
	// timeP and timeP1 are the cold operations at P=nproc and at
	// GOMAXPROCS=1.
	timeP, timeP1 []timing
	// allocP1 is the bytes allocated over the P=1 operations.
	allocP1 uint64
	// gcCycles and gcPauseNs cover the whole window, ops its operations.
	gcCycles  uint32
	gcPauseNs uint64
	ops       int
	// Served workload only: latencies of cached answers and of every
	// answer, and the wall time of each round of len(reqs) requests.
	cachedS, allS, roundS []float64
}

// add files one block's samples; k scales them to the nominal host.
func (res *windowResult) add(parallel bool, blk []timing, k float64) {
	for _, t := range blk {
		t.scaled = t.raw * k
		if parallel {
			res.timeP = append(res.timeP, t)
		} else {
			res.timeP1 = append(res.timeP1, t)
		}
	}
}

// window runs the measured window: reps operation pairs with rec as the
// kernels' (or the server's) recorder, nil when tracing is off.
func (p *plan) window(reps int, rec *julienne.Recorder, ver *verifier) (windowResult, error) {
	var res windowResult
	if p.w.served {
		return res, p.serveWindow(reps, rec, ver, &res)
	}
	p.kernelWindow(reps, rec, ver, &res)
	return res, nil
}

// gcSince charges the collector's cycles and pauses since start to the
// window.
func (res *windowResult) gcSince(start *runtime.MemStats) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	res.gcCycles += now.NumGC - start.NumGC
	res.gcPauseNs += now.PauseTotalNs - start.PauseTotalNs
}

func (p *plan) kernelWindow(reps int, rec *julienne.Recorder, ver *verifier, res *windowResult) {
	var start, m0, m1 runtime.MemStats
	runtime.ReadMemStats(&start)
	defer res.gcSince(&start)
	blk := make([]timing, 0, block)
	p.host.mark()
	for done := 0; done < reps; done += block {
		k := min(block, reps-done)
		blk = blk[:0]
		for i := done; i < done+k; i++ {
			blk = append(blk, p.timedOp(i, rec, ver))
		}
		res.add(true, blk, p.host.scaleSince())

		runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&m0)
		blk = blk[:0]
		for i := done; i < done+k; i++ {
			blk = append(blk, p.timedOp(i, rec, ver))
		}
		runtime.ReadMemStats(&m1)
		res.add(false, blk, p.host.scaleSince())
		runtime.GOMAXPROCS(p.procs)
		res.allocP1 += m1.TotalAlloc - m0.TotalAlloc
	}
	res.ops = 2 * reps
}

// timedOp runs direct kernel call i and times it; the result is
// verified after the clock stops.
func (p *plan) timedOp(i int, rec *julienne.Recorder, ver *verifier) timing {
	j := i % len(p.sources)
	var r result
	dt := span(rec, "op", "window", func() {
		// A panic out of the kernel is a failed operation, not the end
		// of the run.
		defer func() {
			if v := recover(); v != nil {
				r.err = fmt.Errorf("panic: %v", v)
			}
		}()
		r = p.w.op(p.in.g, p.sources[j], rec)
	})
	ver.checkResult(r, p.want[j], fmt.Sprintf("%s from %d", p.w.name, p.sources[j]))
	return timing{key: j, raw: dt.Seconds()}
}
