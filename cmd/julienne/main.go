// Command julienne runs the paper's bucketed kernels and the densest
// subgraph extension on a generated or loaded graph, and writes
// generated graphs to files:
//
//	julienne kcore    [-impl julienne|ligra|bz] [-hist K] [-k K]
//	julienne sssp     [-impl delta|wbfs|gap-bins|bellman-ford|dijkstra] [-src V] [-delta D]
//	                  [-fuse-frontier F] [-fuse-span S]
//	julienne setcover [-impl julienne|pbbs|greedy] [-sets S] [-elements E] [-cover C]
//	                  [-epsilon 0.01] [-file F] [-seed N]
//	julienne densest  [-impl charikar|batch] [-epsilon 0.1]
//	julienne gen      -out graph.bin
//
// All but setcover take the graph flags (-file, or -gen with -n, -m,
// -rows, -cols, -seed, -symmetric; and -weights); all but gen take
// -timeout and the telemetry flags -trace, -stats, -pprof and -http.
// `julienne <command> -h` lists a command's flags.
//
// Exit status: 0 ok, 1 invalid result or I/O error, 2 bad usage or
// input, 3 partial run (-timeout expired; partial stats are printed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"julienne/internal/algo/densest"
	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/cli"
	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/graphio"
	"julienne/internal/harness"
	"julienne/internal/obs"
)

// A command is one subcommand. The skeleton adds -impl, -timeout and
// the telemetry flags when the command has impls, and the graph flags
// when it takes a graph; register adds the command's own flags and
// returns the body to run once they parse.
type command struct {
	impls    string // -impl values, "|"-separated, default first; "" = no kernel
	fixed    string // impls with no cancellation check, which refuse -timeout
	graph    bool
	register func(fs *flag.FlagSet, gf *cli.GraphFlags) func(r *runner) error
}

var commands = map[string]command{
	"kcore":    {impls: "julienne|ligra|bz", fixed: "ligra|bz", graph: true, register: kcoreCmd},
	"sssp":     {impls: "delta|wbfs|gap-bins|bellman-ford|dijkstra", fixed: "gap-bins|bellman-ford|dijkstra", graph: true, register: ssspCmd},
	"setcover": {impls: "julienne|pbbs|greedy", fixed: "pbbs|greedy", register: setcoverCmd},
	"densest":  {impls: "charikar|batch", graph: true, register: densestCmd},
	"gen":      {graph: true, register: genCmd},
}

// A runner is what a command body gets from the skeleton. The body
// returns kernel's *obs.Canceled after printing its PARTIAL line, a
// badInput for input it refuses, or another error for a result that is
// invalid or cannot be written.
type runner struct {
	impl    string
	g       *graph.CSR // nil without the graph flags
	out     io.Writer
	rec     *obs.Recorder
	timeout time.Duration
}

// kernel times call, the run's one operation, under a context that
// expires after -timeout (nil, which never stops a kernel, without one).
func (r *runner) kernel(call func(ctx context.Context) error) (time.Duration, error) {
	var ctx context.Context
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), r.timeout)
		defer cancel()
	}
	var err error
	elapsed := harness.Time(func() { err = call(ctx) })
	r.rec.ObserveDuration(obs.HistOpLatencyNs, elapsed)
	return elapsed, err
}

// badInput marks an error in the command's input (exit status 2).
type badInput struct{ error }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]].register == nil {
		fmt.Fprintln(stderr, "usage: julienne kcore|sssp|setcover|densest|gen [flags] (julienne <command> -h lists its flags)")
		return 2
	}
	c := commands[args[0]]
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "julienne %s: %v\n", args[0], err)
		return code
	}

	fs := flag.NewFlagSet("julienne "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	r := &runner{out: stdout}
	var of *obsFlags
	if c.impls != "" {
		fs.StringVar(&r.impl, "impl", strings.Split(c.impls, "|")[0], "implementation: "+c.impls)
		fs.DurationVar(&r.timeout, "timeout", 0, "stop the run after this long, exit 3 with partial stats "+
			"(0 = no limit; impls with no cancellation check refuse it)")
		of = registerObs(fs)
	}
	var gf *cli.GraphFlags
	if c.graph {
		gf = cli.Register(fs)
	}
	body := c.register(fs, gf)
	if err := fs.Parse(args[1:]); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case c.impls != "" && !slices.Contains(strings.Split(c.impls, "|"), r.impl):
		return fail(2, fmt.Errorf("unknown -impl %q (want %s)", r.impl, c.impls))
	case r.timeout > 0 && slices.Contains(strings.Split(c.fixed, "|"), r.impl):
		return fail(2, fmt.Errorf("-impl %s has no cancellation check, so it cannot honour -timeout", r.impl))
	}

	var err error
	if gf != nil {
		if r.g, err = gf.Build(); err != nil {
			return fail(2, err)
		}
	}
	if of != nil {
		defer of.crashDump(stderr)
		if r.rec, err = of.recorder(stderr); err != nil {
			return fail(2, err)
		}
	}
	var canceled *obs.Canceled
	switch err := body(r); {
	case errors.As(err, &canceled):
		fmt.Fprintln(stderr, err)
		of.printCanceled(stderr, err)
		return 3
	case errors.As(err, &badInput{}):
		return fail(2, err)
	case err != nil:
		return fail(1, err)
	}
	if of != nil {
		if err := of.finish(stdout); err != nil {
			return fail(1, err)
		}
		of.wait(stderr)
	}
	return 0
}

// kcoreCmd computes the coreness decomposition and prints kmax, the top
// of the coreness histogram and, unless -k 0, one k-core subgraph.
func kcoreCmd(fs *flag.FlagSet, _ *cli.GraphFlags) func(*runner) error {
	hist := fs.Int("hist", 10, "print the top-K coreness histogram buckets")
	extract := fs.Int("k", -1, "also extract the k-core subgraph for this k (-1 = max core)")
	return func(r *runner) error {
		g := undirected(r.g)
		fmt.Fprintln(r.out, cli.Describe(g))
		var cores []uint32
		rounds := int64(-1)
		elapsed, err := r.kernel(func(ctx context.Context) (err error) {
			switch r.impl {
			case "julienne":
				res := kcore.Coreness(g, kcore.Options{Recorder: r.rec, Ctx: ctx})
				cores, rounds, err = res.Coreness, res.Rounds, res.Err
			case "ligra":
				res := kcore.CorenessLigra(g)
				cores, rounds = res.Coreness, res.Rounds
			case "bz":
				cores = kcore.CorenessBZ(g)
			}
			return err
		})
		if err != nil {
			fmt.Fprintf(r.out, "impl=%s time=%v PARTIAL rounds=%d\n", r.impl, elapsed, rounds)
			return err
		}

		kmax := kcore.MaxCoreness(cores)
		counts := make([]int, kmax+1)
		for _, c := range cores {
			counts[c]++
		}
		fmt.Fprintf(r.out, "impl=%s time=%v kmax=%d", r.impl, elapsed, kmax)
		if rounds >= 0 {
			fmt.Fprintf(r.out, " rounds(rho)=%d", rounds)
		}
		fmt.Fprintln(r.out)
		for k, printed := int(kmax), 0; k >= 0 && printed < *hist; k-- {
			if counts[k] > 0 {
				fmt.Fprintf(r.out, "  coreness %d: %d vertices\n", k, counts[k])
				printed++
			}
		}
		if *extract != 0 {
			k := uint32(*extract)
			if *extract < 0 {
				k = kmax
			}
			sub := kcore.ExtractCore(g, cores, k)
			fmt.Fprintf(r.out, "%d-core: %d vertices, %d edges, %d connected core(s)\n",
				k, sub.Graph.NumVertices(), sub.Graph.NumEdges()/2, sub.NumCores)
		}
		return nil
	}
}

// ssspCmd solves single-source shortest paths and prints the rounds,
// relaxations and a distance summary. Unweighted inputs get the paper's
// wBFS weighting ([1, log n)).
func ssspCmd(fs *flag.FlagSet, gf *cli.GraphFlags) func(*runner) error {
	src := fs.Uint("src", 0, "source vertex")
	delta := fs.Int64("delta", 32768, "delta parameter (delta-stepping variants)")
	fuseFrontier := fs.Int("fuse-frontier", 0, "bucket fusion: fuse consecutive buckets while the combined frontier stays at or under this size (wbfs/delta; 0 = fusion off)")
	fuseSpan := fs.Int("fuse-span", 0, "bucket fusion: cap the fused run at this many consecutive bucket ids (0 = unbounded; only meaningful with -fuse-frontier)")
	return func(r *runner) error {
		g := r.g
		if !g.Weighted() {
			g = gen.LogWeights(g, *gf.Seed+1)
		}
		if *src >= uint(g.NumVertices()) {
			return badInput{fmt.Errorf("-src %d out of range [0,%d)", *src, g.NumVertices())}
		}
		fmt.Fprintln(r.out, cli.Describe(g))
		s := graph.Vertex(*src)
		var res sssp.Result
		elapsed, err := r.kernel(func(ctx context.Context) error {
			opt := sssp.Options{Recorder: r.rec, Ctx: ctx,
				Fusion: bucket.Fusion{MaxFrontier: *fuseFrontier, MaxSpan: *fuseSpan}}
			switch r.impl {
			case "wbfs":
				res = sssp.WBFS(g, s, opt)
			case "delta":
				res = sssp.DeltaStepping(g, s, *delta, opt)
			case "gap-bins":
				res = sssp.DeltaSteppingBins(g, s, *delta)
			case "bellman-ford":
				res = sssp.BellmanFord(g, s)
			case "dijkstra":
				res = sssp.DijkstraHeap(g, s)
			}
			return res.Err
		})
		if err != nil {
			fmt.Fprintf(r.out, "algo=%s src=%d PARTIAL rounds=%d relaxations=%d edges=%d\n",
				r.impl, s, res.Rounds, res.Relaxations, res.EdgesTraversed)
			return err
		}

		reached, maxDist, sum := 0, int64(0), int64(0)
		for _, d := range res.Dist {
			if d != sssp.Unreachable {
				reached++
				sum += d
				maxDist = max(maxDist, d)
			}
		}
		fmt.Fprintf(r.out, "algo=%s src=%d time=%v rounds=%d relaxations=%d\n",
			r.impl, s, elapsed, res.Rounds, res.Relaxations)
		fmt.Fprintf(r.out, "reached=%d/%d max_dist=%d avg_dist=%.1f\n",
			reached, len(res.Dist), maxDist, float64(sum)/float64(max(reached, 1)))
		return nil
	}
}

// setcoverCmd solves approximate set cover on a random bipartite
// instance, or on one loaded from a file whose first -sets vertices are
// the sets, and validates the cover.
func setcoverCmd(fs *flag.FlagSet, _ *cli.GraphFlags) func(*runner) error {
	sets := fs.Int("sets", 1<<12, "number of sets (generator, or prefix size for -file)")
	elements := fs.Int("elements", 1<<15, "number of elements (generator)")
	cover := fs.Int("cover", 4, "average sets covering an element (generator)")
	eps := fs.Float64("epsilon", 0.01, "bucketing granularity epsilon")
	file := fs.String("file", "", "load bipartite instance from graph file")
	seed := fs.Uint64("seed", 2017, "generator seed")
	return func(r *runner) error {
		var g *graph.CSR
		if *file != "" {
			var err error
			if g, err = graphio.LoadFile(*file, false); err != nil {
				return badInput{err}
			}
		} else if *sets >= 1 && *elements >= 0 {
			g = gen.SetCover(*sets, *elements, *cover, *seed).Graph
		}
		if g == nil || *sets < 1 || *sets > g.NumVertices() {
			return badInput{fmt.Errorf("bad -sets %d -elements %d (want 1 <= sets <= vertices, elements >= 0)", *sets, *elements)}
		}
		fmt.Fprintf(r.out, "instance: sets=%d elements=%d M=%d\n", *sets, g.NumVertices()-*sets, g.NumEdges())
		var res setcover.Result
		elapsed, err := r.kernel(func(ctx context.Context) error {
			opt := setcover.Options{Epsilon: *eps, Recorder: r.rec, Ctx: ctx}
			switch r.impl {
			case "julienne":
				res = setcover.Approx(g, *sets, opt)
			case "pbbs":
				res = setcover.ApproxPBBS(g, *sets, opt)
			case "greedy":
				res = setcover.Greedy(g, *sets)
			}
			return res.Err
		})
		if err != nil {
			fmt.Fprintf(r.out, "impl=%s PARTIAL cover_size=%d rounds=%d sets_inspected=%d\n",
				r.impl, res.CoverSize, res.Rounds, res.SetsInspected)
			return err
		}

		if err := setcover.Validate(g, *sets, res.InCover); err != nil {
			return fmt.Errorf("INVALID COVER: %w", err)
		}
		fmt.Fprintf(r.out, "impl=%s time=%v cover_size=%d rounds=%d sets_inspected=%d (cover valid)\n",
			r.impl, elapsed, res.CoverSize, res.Rounds, res.SetsInspected)
		return nil
	}
}

// densestCmd finds an approximately densest subgraph with the bucketed
// greedy peel (Charikar 2-approximation) or the parallel batch peel
// (Bahmani (2+2ε)-approximation), and checks the density it reports.
func densestCmd(fs *flag.FlagSet, _ *cli.GraphFlags) func(*runner) error {
	eps := fs.Float64("epsilon", 0.1, "batch peel epsilon")
	return func(r *runner) error {
		g := undirected(r.g)
		fmt.Fprintln(r.out, cli.Describe(g))
		var res densest.Result
		elapsed, err := r.kernel(func(ctx context.Context) error {
			opt := densest.Options{Recorder: r.rec, Ctx: ctx}
			if r.impl == "batch" {
				res = densest.PeelBatchWithOptions(g, *eps, opt)
			} else {
				res = densest.CharikarWithOptions(g, opt)
			}
			return res.Err
		})
		if err != nil {
			fmt.Fprintf(r.out, "impl=%s PARTIAL rounds=%d density=%.3f\n", r.impl, res.Rounds, res.Density)
			return err
		}

		whole := float64(g.NumEdges()) / 2 / float64(max(g.NumVertices(), 1))
		fmt.Fprintf(r.out, "impl=%s time=%v rounds=%d\n", r.impl, elapsed, res.Rounds)
		fmt.Fprintf(r.out, "densest subgraph: %d vertices, density %.3f (whole graph: %.3f)\n",
			len(res.Vertices), res.Density, whole)
		if recount := densest.Density(g, res.Vertices); recount != res.Density {
			return fmt.Errorf("density mismatch (%.6f recounted)", recount)
		}
		return nil
	}
}

// genCmd writes the graph to -out in Ligra text (.adj/.txt) or binary
// format.
func genCmd(fs *flag.FlagSet, _ *cli.GraphFlags) func(*runner) error {
	out := fs.String("out", "", "output path (.adj/.txt = Ligra text, else binary)")
	return func(r *runner) error {
		if *out == "" {
			return badInput{errors.New("-out is required")}
		}
		if err := graphio.SaveFile(*out, r.g); err != nil {
			return err
		}
		fmt.Fprintf(r.out, "wrote %s: %s\n", *out, cli.Describe(r.g))
		return nil
	}
}

// undirected returns g, symmetrized if it is directed.
func undirected(g *graph.CSR) *graph.CSR {
	if !g.Symmetric() {
		return graph.Symmetrized(g)
	}
	return g
}
