package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"julienne"
)

// workload is one input family plus the kernel an operation runs on it.
// README.md records why each one was chosen.
type workload struct {
	name string
	// gen builds the unweighted graph from the seed; weights, when set,
	// returns the weighted copy the kernel runs on.
	gen     func(seed uint64, smoke bool) *julienne.CSR
	weights func(g *julienne.CSR, seed uint64) *julienne.CSR
	// op runs the kernel once (src is ignored by k-core); ref is the
	// sequential reference it is checked against.
	op  func(g *julienne.CSR, src julienne.Vertex, rec *julienne.Recorder) result
	ref func(g *julienne.CSR, src julienne.Vertex) (result, error)
	// sources is how many sources the operations rotate over; zero
	// means one. Shortest-path work from one source differs from
	// another's by a tenth, and between seeds as much: several sources
	// average it out.
	sources int
	// servePath is the endpoint that runs this kernel behind the
	// serving layer.
	servePath string
	// served marks the workload whose operation is an HTTP request.
	served bool
	// pairsPerSecond turns --seconds into a fixed number of
	// (P=nproc, P=1) rep pairs: rep counts depend on the argument only,
	// never on measured time, so two commits run windows of the same
	// length in operations. Sized on the 2-vCPU dev box so that the
	// window lasts about --seconds there.
	pairsPerSecond float64
}

// delta is the ∆ of every ∆-stepping call, the serving layer's default.
const delta = 32768

func rmat(logN int) func(uint64, bool) *julienne.CSR {
	return func(seed uint64, smoke bool) *julienne.CSR {
		k := logN
		if smoke {
			k = 10
		}
		return julienne.RMAT(1<<k, 16<<k, true, seed)
	}
}

func grid(_ uint64, smoke bool) *julienne.CSR {
	if smoke {
		return julienne.Grid2D(32, 32)
	}
	return julienne.Grid2D(512, 512)
}

func kcoreOp(g *julienne.CSR, _ julienne.Vertex, rec *julienne.Recorder) result {
	r := julienne.KCoreWithOptions(g, julienne.KCoreOptions{Recorder: rec})
	return result{coreness: r.Coreness, rounds: r.Rounds, edges: r.EdgesTraversed, bucket: r.BucketStats, err: r.Err}
}

func ssspResult(r julienne.SSSPResult) result {
	return result{dist: r.Dist, rounds: r.Rounds, edges: r.EdgesTraversed, relaxations: r.Relaxations, bucket: r.BucketStats, err: r.Err}
}

func wbfsOp(g *julienne.CSR, src julienne.Vertex, rec *julienne.Recorder) result {
	return ssspResult(julienne.WBFSWithOptions(g, src, julienne.SSSPOptions{Recorder: rec}))
}

func deltaOp(g *julienne.CSR, src julienne.Vertex, rec *julienne.Recorder) result {
	return ssspResult(julienne.DeltaSteppingWithOptions(g, src, delta, julienne.SSSPOptions{Recorder: rec}))
}

func kcoreRef(g *julienne.CSR, _ julienne.Vertex) (result, error) {
	c, err := refCoreness(g)
	return result{coreness: c}, err
}

func ssspRef(g *julienne.CSR, src julienne.Vertex) (result, error) {
	d, err := refDist(g, src)
	return result{dist: d}, err
}

var workloads = map[string]*workload{
	"kcore-rmat": {
		name: "kcore-rmat", gen: rmat(17),
		op: kcoreOp, ref: kcoreRef, servePath: "/sssp", pairsPerSecond: 5.5,
	},
	"wbfs-grid": {
		name: "wbfs-grid", gen: grid, weights: julienne.LogWeights,
		op: wbfsOp, ref: ssspRef, servePath: "/wbfs", pairsPerSecond: 4.2,
	},
	"delta-rmat": {
		name: "delta-rmat", gen: rmat(17), weights: julienne.HeavyWeights,
		op: deltaOp, ref: ssspRef, sources: 8, servePath: "/sssp", pairsPerSecond: 3.2,
	},
	"serve-zipf": {
		name: "serve-zipf", gen: rmat(16), weights: julienne.HeavyWeights,
		op: deltaOp, ref: ssspRef, servePath: "/sssp", served: true, pairsPerSecond: 0.25,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// input is what set-up leaves behind: the graph operations run on,
// after its round trip through the binary graph format, and what the
// set-up spans measured.
type input struct {
	g                  *julienne.CSR
	genS, saveS, loadS float64
	fileBytes          int64
}

// warmUps is the number of operations set-up runs before timing starts.
const warmUps = 3

// setUp does everything that precedes the first timed operation:
// generate and weight the graph, save and reload it through a file,
// start the server (served workload only) and run the warm-up
// operations. Reference results are not part of it.
func setUp(w *workload, cfg config, tmp string, tr *julienne.Recorder) (*input, error) {
	in := &input{}
	var g *julienne.CSR
	in.genS = span(tr, "setup.gen", "setup", func() { g = w.gen(cfg.seed, cfg.smoke) }).Seconds()
	if w.weights != nil {
		in.genS += span(tr, "setup.weights", "setup", func() { g = w.weights(g, cfg.seed+1) }).Seconds()
	}
	path := filepath.Join(tmp, "graph.bin")
	var err error
	in.saveS = span(tr, "setup.graphio_save", "setup", func() { err = julienne.SaveGraph(path, g) }).Seconds()
	if err != nil {
		return nil, fmt.Errorf("set-up: save graph: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	in.fileBytes = st.Size()
	g = nil
	in.loadS = span(tr, "setup.graphio_load", "setup", func() { in.g, err = julienne.LoadGraph(path, true) }).Seconds()
	if err != nil {
		return nil, fmt.Errorf("set-up: load graph: %w", err)
	}
	if err := os.Remove(path); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if w.served {
		err = warmServer(in.g, w.servePath, tr)
	} else {
		span(tr, "setup.warmup", "setup", func() {
			for i := 0; i < warmUps; i++ {
				if r := w.op(in.g, 0, nil); r.err != nil {
					err = r.err
				}
			}
		})
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: warm-up: %w", err)
	}
	return in, nil
}

// span times f under a benchmark-side span named after the layer
// boundary it wraps; the trace keeps the span when tracing is on.
func span(tr *julienne.Recorder, name, parent string, f func()) time.Duration {
	sp := tr.StartSpan(name).Arg("parent", parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	return d
}
