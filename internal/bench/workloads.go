package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/harness"
	"julienne/internal/obs"
	"julienne/internal/rng"
)

// benchDelta mirrors the ∆ the root benchmark suite uses for the
// heavy-weight ∆-stepping configuration.
const benchDelta = 32768

// Bucket measures the bucket structure's hot paths: the histogram
// UpdateBuckets and a full NextBucket drain.
func Bucket(cfg Config) *Report {
	rep := newReport("bucket", cfg, bucketBaseline)
	n, k := 1<<18, 1<<16
	if cfg.Smoke {
		n, k = 1<<15, 1<<13
	}
	for _, p := range procsList() {
		withProcs(p, func() {
			rep.Results = append(rep.Results,
				updateEntry(n, k, p, cfg),
				drainEntry(n, p, cfg),
			)
		})
	}
	if !cfg.Smoke {
		withProcs(1, func() {
			rep.Comparison = deltas(bucketBaseline, goBenchBucket())
		})
	}
	return rep
}

// updateStream pre-computes a realistic (identifier, dest) update
// stream so the measurement isolates UpdateBuckets itself (the same
// workload as BenchmarkUpdateBucketsHistogram).
func updateStream(n, k int, rec *obs.Recorder) (*bucket.Par, func(j int) (uint32, bucket.Dest)) {
	d := make([]bucket.ID, n)
	for i := range d {
		d[i] = bucket.ID(rng.UintNAt(1, uint64(i), 512))
	}
	par := bucket.New(n, func(i uint32) bucket.ID { return d[i] }, bucket.Increasing, bucket.Options{Recorder: rec})
	ids := make([]uint32, k)
	dests := make([]bucket.Dest, k)
	for j := 0; j < k; j++ {
		v := uint32(rng.UintNAt(2, uint64(j), uint64(n)))
		prev := d[v]
		next := prev / 2
		d[v] = next
		ids[j] = v
		dest := par.GetBucket(prev, next)
		if dest == bucket.None {
			dest = bucket.Dest(0)
		}
		dests[j] = dest
	}
	return par, func(j int) (uint32, bucket.Dest) { return ids[j], dests[j] }
}

// updateEntry measures repeated UpdateBuckets calls; one call is one
// round, so per-op and per-round figures coincide.
func updateEntry(n, k, p int, cfg Config) Entry {
	e := Entry{Name: "bucket/update-histogram", Procs: p, N: n, M: int64(k), Rounds: 1}
	par, f := updateStream(n, k, nil)
	sample := harness.TimeMedian(cfg.reps(), func() { par.UpdateBuckets(k, f) })
	alloc := harness.MeasureAlloc(cfg.reps(), func() { par.UpdateBuckets(k, f) })
	rec := obs.NewRecorder()
	ipar, if_ := updateStream(n, k, rec)
	ipar.UpdateBuckets(k, if_)
	e.NsPerOp = sample.Median.Nanoseconds()
	e.NsPerRound = e.NsPerOp
	e.BytesPerOp = alloc.BytesPerOp
	e.BytesPerRound = e.BytesPerOp
	e.AllocsPerOp = alloc.AllocsPerOp
	e.Counters = rec.Counters()
	fillRoundPercentiles(&e, rec)
	cfg.Live.Merge(rec)
	return e
}

// drainEntry measures constructing and fully draining a structure over
// n identifiers spread across 1024 logical buckets.
func drainEntry(n, p int, cfg Config) Entry {
	d := make([]bucket.ID, n)
	for i := range d {
		d[i] = bucket.ID(rng.UintNAt(3, uint64(i), 1024))
	}
	get := func(i uint32) bucket.ID { return d[i] }
	e := Entry{Name: "bucket/new-and-drain", Procs: p, N: n}
	return measure(e, cfg, func(rec *obs.Recorder) int64 {
		par := bucket.New(n, get, bucket.Increasing, bucket.Options{Recorder: rec})
		for {
			id, _ := par.NextBucket()
			if id == bucket.Nil {
				break
			}
		}
		return par.Stats().BucketsReturned
	})
}

// Algos measures the four bucketed applications over generator
// families at every procs point.
func Algos(cfg Config) *Report {
	rep := newReport("algos", cfg, algosBaseline)
	n, m := 1<<13, 1<<17
	if cfg.Smoke {
		n, m = 1<<11, 1<<14
	}
	seed := cfg.seed()

	type input struct {
		family string
		g      *graph.CSR
	}
	var inputs []input
	for _, f := range gen.SymmetricFamilies() {
		switch f.Name {
		case "rmat-sym", "chung-lu-sym", "grid":
			inputs = append(inputs, input{f.Name, f.Build(n, m, seed)})
		}
	}
	inst := gen.SetCover(n/2, 4*n, 4, seed+9)

	for _, p := range procsList() {
		withProcs(p, func() {
			for _, in := range inputs {
				g := in.g
				wg := gen.LogWeights(g, seed+1)
				hg := gen.HeavyWeights(g, seed+2)
				gm := int64(g.NumEdges())
				rep.Results = append(rep.Results,
					measure(Entry{Name: "kcore", Family: in.family, Procs: p, N: n, M: gm}, cfg,
						func(rec *obs.Recorder) int64 {
							return kcore.Coreness(g, kcore.Options{Recorder: rec}).Rounds
						}),
					measure(Entry{Name: "wbfs", Family: in.family, Procs: p, N: n, M: gm}, cfg,
						func(rec *obs.Recorder) int64 {
							return sssp.WBFS(wg, 0, sssp.Options{Recorder: rec}).Rounds
						}),
					measure(Entry{Name: "delta-stepping", Family: in.family, Procs: p, N: n, M: gm}, cfg,
						func(rec *obs.Recorder) int64 {
							return sssp.DeltaStepping(hg, 0, benchDelta, sssp.Options{Recorder: rec}).Rounds
						}),
				)
				if in.family == "grid" {
					// Fusion ablation on the road-like family (DESIGN.md
					// §11): same inputs and knobs as the unfused wbfs /
					// delta-stepping entries above, plus maximal bucket
					// fusion. Compare bucket.buckets_returned across the
					// pairs — fusion's claim is fewer synchronization
					// rounds at (near-)identical relaxation counts, not a
					// different traversal.
					fus := bucket.MaximalFusion()
					rep.Results = append(rep.Results,
						measure(Entry{Name: "wbfs-fused", Family: in.family, Procs: p, N: n, M: gm}, cfg,
							func(rec *obs.Recorder) int64 {
								return sssp.WBFS(wg, 0, sssp.Options{Recorder: rec, Fusion: fus}).Rounds
							}),
						measure(Entry{Name: "delta-stepping-fused", Family: in.family, Procs: p, N: n, M: gm}, cfg,
							func(rec *obs.Recorder) int64 {
								return sssp.DeltaStepping(hg, 0, benchDelta, sssp.Options{Recorder: rec, Fusion: fus}).Rounds
							}),
					)
				}
			}
			rep.Results = append(rep.Results,
				measure(Entry{Name: "setcover", Family: "setcover-synth", Procs: p,
					N: inst.Graph.NumVertices(), M: int64(inst.Graph.NumEdges())}, cfg,
					func(rec *obs.Recorder) int64 {
						return setcover.Approx(inst.Graph, inst.Sets, setcover.Options{Recorder: rec}).Rounds
					}),
			)
		})
	}
	if !cfg.Smoke {
		withProcs(1, func() {
			rep.Comparison = deltas(algosBaseline, goBenchAlgos())
		})
	}
	return rep
}

// CheckFusionAblation verifies the fusion ablation's claim inside an
// algos report: every fused grid-family entry must have extracted
// strictly fewer bucket rounds than its unfused counterpart at the
// same procs point, and the wbfs pair — the road-like configuration
// fusion exists for — must show at least 3x fewer. Rounds are read
// from the obs bucket.buckets_returned counter of the instrumented
// run, never from wall time, so the gate is immune to CI machine
// noise. cmd/bench -assert-fusion runs this after writing the report.
func CheckFusionAblation(rep *Report) error {
	type key struct {
		name  string
		procs int
	}
	returned := map[key]int64{}
	for _, e := range rep.Results {
		if e.Family != "grid" {
			continue
		}
		returned[key{e.Name, e.Procs}] = e.Counters[obs.CtrBucketReturned.Name()]
	}
	checked := 0
	for k, fused := range returned {
		base, ok := strings.CutSuffix(k.name, "-fused")
		if !ok {
			continue
		}
		unfused, ok := returned[key{base, k.procs}]
		if !ok {
			return fmt.Errorf("fusion ablation: %s (procs=%d) has no unfused %s entry to compare against", k.name, k.procs, base)
		}
		if fused <= 0 || unfused <= 0 {
			return fmt.Errorf("fusion ablation: %s vs %s (procs=%d): bucket.buckets_returned %d vs %d — counter missing from the instrumented run", k.name, base, k.procs, fused, unfused)
		}
		if fused >= unfused {
			return fmt.Errorf("fusion ablation: %s extracted %d bucket rounds at procs=%d, not fewer than unfused %s's %d", k.name, fused, k.procs, base, unfused)
		}
		if base == "wbfs" && 3*fused > unfused {
			return fmt.Errorf("fusion ablation: wbfs-fused extracted %d bucket rounds at procs=%d vs unfused %d; want at least 3x fewer on the road-like family", fused, k.procs, unfused)
		}
		checked++
	}
	if checked == 0 {
		return errors.New("fusion ablation: report contains no fused grid-family entries")
	}
	return nil
}

// maxGridForksPerRound is the fork budget CheckForkBudget holds wbfs on
// the grid family to at procs > 1: the frontiers there are tens of
// vertices, far below the parallel substrate's work cut-off, so a round
// that forks at all is the exception (the first bucket rounds after a
// range advance, at most). Before the cut-off every round forked.
const maxGridForksPerRound = 0.05

// CheckForkBudget verifies, from the counters of the instrumented runs
// and never from wall time, that the many-small-rounds workload does
// not pay a fork per round: every wbfs entry on the grid family at
// procs > 1 must have gone through the helper pool in at most
// maxGridForksPerRound of its rounds. It returns how many entries it
// checked (none on a single-CPU machine, which has no procs > 1 rows).
// cmd/bench -assert-forks runs this after writing the report.
func CheckForkBudget(rep *Report) (checked int, err error) {
	for _, e := range rep.Results {
		if e.Name != "wbfs" || e.Family != "grid" || e.Procs <= 1 {
			continue
		}
		if e.ForksPerRound == nil {
			return checked, fmt.Errorf("fork budget: %s/%s (procs=%d) carries no parallel.forked counter", e.Name, e.Family, e.Procs)
		}
		if *e.ForksPerRound > maxGridForksPerRound {
			return checked, fmt.Errorf("fork budget: %s/%s (procs=%d) forked %.3f times per round over %d rounds; the cut-off should keep it at or below %.2f",
				e.Name, e.Family, e.Procs, *e.ForksPerRound, e.Rounds, maxGridForksPerRound)
		}
		checked++
	}
	return checked, nil
}

// goBenchBucket re-measures the bucket benchmarks of the pre-arena
// baseline with identical workloads via testing.Benchmark, so the
// before/after rows compare like with like.
func goBenchBucket() []GoBench {
	par, f := updateStream(1<<18, 1<<16, nil)
	hist := runGoBench("BenchmarkUpdateBucketsHistogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.UpdateBuckets(1<<16, f)
		}
	})
	n := 1 << 18
	d := make([]bucket.ID, n)
	for i := range d {
		d[i] = bucket.ID(rng.UintNAt(3, uint64(i), 1024))
	}
	get := func(i uint32) bucket.ID { return d[i] }
	drain := runGoBench("BenchmarkNextBucket", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := bucket.New(n, get, bucket.Increasing, bucket.Options{})
			b.StartTimer()
			for {
				id, _ := p.NextBucket()
				if id == bucket.Nil {
					break
				}
			}
		}
	})
	return []GoBench{hist, drain}
}

// goBenchAlgos re-measures the application benchmarks of the pre-arena
// baseline (the root bench_test.go workloads: RMAT n=2^13, m=2^17).
func goBenchAlgos() []GoBench {
	g := gen.RMAT(1<<13, 1<<17, true, 2017)
	wg := gen.LogWeights(g, 1)
	hg := gen.HeavyWeights(g, 2)
	inst := gen.SetCover(1<<12, 1<<15, 4, 3)
	return []GoBench{
		runGoBench("BenchmarkKCoreRecorderOff", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kcore.Coreness(g, kcore.Options{})
			}
		}),
		runGoBench("BenchmarkTable3WBFSJulienne", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sssp.WBFS(wg, 0, sssp.Options{})
			}
		}),
		runGoBench("BenchmarkTable3DeltaJulienne", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sssp.DeltaStepping(hg, 0, benchDelta, sssp.Options{})
			}
		}),
		runGoBench("BenchmarkTable3SetCoverJulienne", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				setcover.Approx(inst.Graph, inst.Sets, setcover.Options{})
			}
		}),
	}
}

// runGoBench executes one benchmark body under the testing harness and
// extracts the standard -benchmem triple.
func runGoBench(name string, body func(b *testing.B)) GoBench {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		body(b)
	})
	return GoBench{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
