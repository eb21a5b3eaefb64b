package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"julienne/internal/harness"
	"julienne/internal/obs"
)

// views are the paper artifacts Print renders, in paper order. Each is
// a reading of report entries, selected and ordered by the registry;
// none measures anything.
var views = []struct {
	id     string
	render func(*view)
}{
	{"table1", (*view).table1},
	{"table2", (*view).table2},
	{"table3", (*view).table3},
	{"fig1", (*view).fig1},
	{"fig2", scalingFigure("Figure 2: k-core running time vs. thread count", "kcore", "julienne", "ligra")},
	{"fig3", scalingFigure("Figure 3: wBFS running time vs. thread count (weights [1,log n))", "wbfs", "julienne", "gap-bins", "bellman-ford")},
	{"fig4", scalingFigure("Figure 4: delta-stepping running time vs. thread count (weights [1,1e5))", "delta", "julienne", "gap-bins", "bellman-ford")},
	{"fig5", scalingFigure("Figure 5: set cover running time vs. thread count (e=0.01)", "setcover", "julienne", "pbbs")},
	{"ablation", (*view).ablation},
	{"extension", func(v *view) {
		v.timings("Extensions: beyond the paper's four applications", v.sel("extension", "", "", ""))
	}},
	{"bucket", func(v *view) {
		v.timings("Bucket structure: UpdateBuckets and NextBucket on their own", v.sel("bucket", "", "", ""))
	}},
}

// Artifacts lists the ids Print accepts.
func Artifacts() []string {
	ids := make([]string, len(views))
	for i, vw := range views {
		ids[i] = vw.id
	}
	return ids
}

// Print renders one artifact as text tables from the two reports. It is
// a pure function of its arguments: rows and their order come from the
// registry, cells from the reports, and a row or procs point a report
// lacks prints "-".
func Print(out io.Writer, artifact string, bucketRep, algosRep *Report) error {
	v := &view{out: out, ws: Workloads(algosRep.Smoke), entries: map[string]*Entry{}}
	for _, rep := range []*Report{bucketRep, algosRep} {
		for i := range rep.Results {
			e := &rep.Results[i]
			v.entries[at(e.Key(), e.Procs)] = e
			if !slices.Contains(v.procs, e.Procs) {
				v.procs = append(v.procs, e.Procs)
			}
		}
	}
	if len(v.procs) == 0 {
		v.procs = []int{1}
	}
	slices.Sort(v.procs)
	for _, vw := range views {
		if vw.id != artifact {
			continue
		}
		vw.render(v)
		if v.matched == 0 {
			return fmt.Errorf("print: no registry entry belongs to %s", artifact)
		}
		return nil
	}
	return fmt.Errorf("print: unknown artifact %q (want %s)", artifact, strings.Join(Artifacts(), "|"))
}

type view struct {
	out     io.Writer
	ws      []Workload
	entries map[string]*Entry // by key@procs
	procs   []int             // the procs points the reports hold, ascending
	matched int               // registry rows the view selected
}

// sel returns the registry's workloads matching the given fields ("" =
// any), in registry order.
func (v *view) sel(artifact, app, impl, graph string) []Workload {
	var ws []Workload
	for _, w := range v.ws {
		if (artifact == "" || w.Artifact == artifact) && (app == "" || w.App == app) &&
			(impl == "" || w.Impl == impl) && (graph == "" || w.Graph == graph) {
			ws = append(ws, w)
		}
	}
	v.matched += len(ws)
	return ws
}

func (v *view) at(w Workload, procs int) *Entry { return v.entries[at(w.Key(), procs)] }

// maxProcs is the P of the T(P) columns.
func (v *view) maxProcs() int { return v.procs[len(v.procs)-1] }

func (v *view) table(title string, t *harness.Table) {
	fmt.Fprintf(v.out, "\n== %s ==\n\n", title)
	t.Render(v.out)
}

// cell renders one field of an entry, "-" when the report lacks it.
func cell(e *Entry, f func(e *Entry) any) any {
	if e == nil {
		return "-"
	}
	return f(e)
}

func fast(e *Entry) any   { return cell(e, func(e *Entry) any { return time.Duration(e.NsFast) }) }
func med(e *Entry) any    { return cell(e, func(e *Entry) any { return time.Duration(e.NsMedian) }) }
func iqr(e *Entry) any    { return cell(e, func(e *Entry) any { return time.Duration(e.NsIQR) }) }
func rounds(e *Entry) any { return cell(e, func(e *Entry) any { return e.Rounds }) }

func answer(e *Entry, name string) any { return cell(e, func(e *Entry) any { return e.Answer[name] }) }
func counter(e *Entry, c obs.Counter) any {
	return cell(e, func(e *Entry) any { return e.Counters[c.Name()] })
}

// ratio renders num/den of two entries' fields, "-" when either is
// missing or the denominator is zero.
func ratio(num, den *Entry, f func(e *Entry) int64) any {
	if num == nil || den == nil || f(den) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(f(num))/float64(f(den)))
}

func nsFast(e *Entry) int64 { return e.NsFast }

// answers renders an entry's answer counters as sorted name=value pairs.
func answers(e *Entry) any {
	return cell(e, func(e *Entry) any {
		var parts []string
		for _, name := range sortedKeys(e.Answer, nil) {
			parts = append(parts, fmt.Sprintf("%s=%d", name, e.Answer[name]))
		}
		return strings.Join(parts, " ")
	})
}

// timings is the layout of the paper's Table 3: per implementation the
// time at one thread, at all threads, and the self-relative speedup —
// here with the spread of the P-thread samples, the rounds, the
// allocations and the answer counters of the one-thread run beside it.
func (v *view) timings(title string, ws []Workload) {
	p := v.maxProcs()
	t := harness.NewTable("app", "impl", "graph", "T(1)", fmt.Sprintf("T(%d)", p), "median", "iqr", "speedup", "rounds", "allocs/op", "answer")
	for _, w := range ws {
		e1, ep := v.at(w, 1), v.at(w, p)
		t.AddRow(w.App, w.Impl, w.Graph, fast(e1), fast(ep), med(ep), iqr(ep), ratio(e1, ep, nsFast), rounds(e1),
			cell(e1, func(e *Entry) any { return e.AllocsPerOp }), answers(e1))
	}
	v.table(title, t)
}

// table1 backs Table 1's asymptotic bounds with work counters: the
// bucketed algorithms touch O(n + m) state where the frontier/scan
// baselines pay a multiplicative factor (k_max·n for k-core, rounds·m
// for Bellman-Ford, carried sets for PBBS set cover).
func (v *view) table1() {
	t := harness.NewTable("problem", "graph", "metric", "julienne", "baseline", "baseline/julienne")
	for _, c := range []struct{ app, baseline, metric string }{
		{"kcore", "ligra", "vertices_scanned"},
		{"wbfs", "bellman-ford", "edges_traversed"},
		{"setcover", "pbbs", "sets_inspected"},
	} {
		for _, w := range v.sel("table3", c.app, "julienne", "") {
			base := w
			base.Impl = c.baseline
			j, b := v.at(w, 1), v.at(base, 1)
			t.AddRow(c.app, w.Graph, c.metric, answer(j, c.metric), answer(b, c.metric),
				ratio(b, j, func(e *Entry) int64 { return e.Answer[c.metric] }))
		}
	}
	v.table("Table 1 (empirical): work counters, bucketed vs baseline", t)
}

// table2 is the graph inventory, read off the k-core rows: n, m, the
// peeling complexity ρ (the paper's Table 2) and k_max per input. ρ is
// the Ligra baseline's rounds, one per peeling step by construction;
// the bucketed run peels a level to its end on the caller and takes
// fewer.
func (v *view) table2() {
	t := harness.NewTable("graph", "role", "n", "m", "rho", "kmax")
	role := map[string]string{}
	ins, _ := inputs(false)
	for _, in := range ins {
		role[in.name] = in.role
	}
	for _, w := range v.sel("table3", "kcore", "julienne", "") {
		e := v.at(w, 1)
		base := w
		base.Impl = "ligra"
		t.AddRow(w.Graph, role[w.Graph], cell(e, func(e *Entry) any { return e.N }), cell(e, func(e *Entry) any { return e.M }),
			rounds(v.at(base, 1)), answer(e, "kmax"))
	}
	v.table("Table 2: graph inputs (synthetic stand-ins)", t)
}

// table3 prints one timings table per input.
func (v *view) table3() {
	all := v.sel("table3", "", "", "")
	for len(all) > 0 {
		n := 0
		for n < len(all) && all[n].Graph == all[0].Graph {
			n++
		}
		e := v.at(all[0], 1)
		v.timings(fmt.Sprintf("Table 3: graph %s (n=%v, m=%v)", all[0].Graph,
			cell(e, func(e *Entry) any { return e.N }), cell(e, func(e *Entry) any { return e.M })), all[:n])
		all = all[n:]
	}
}

// traffic reads an entry's bucket counters the way §3.4 defines
// throughput: rounds are non-empty buckets extracted, processed is
// identifiers extracted plus identifiers moved.
func traffic(e *Entry) (rounds, processed int64) {
	c := e.Counters
	return c[obs.CtrBucketReturned.Name()], c[obs.CtrBucketExtracted.Name()] + c[obs.CtrBucketMoved.Name()]
}

// fig1 is the §3.4 plot as a table: bucket-structure throughput against
// average identifiers per round for b ∈ {128, 256, 512, 1024}, then one
// point per application from the bucket counters of its table3 row on
// rmat — the series Figure 1 overlays — and the two §3.4 scalars.
func (v *view) fig1() {
	header := []string{"series", "identifiers", "rounds", "avg ids/round"}
	for _, p := range v.procs {
		header = append(header, fmt.Sprintf("ids/s P=%d", p))
	}
	t := harness.NewTable(header...)
	curve := make([][]point, len(v.procs))
	row := func(series string, w Workload, onCurve bool) {
		cells := []any{series, "-", "-", "-"}
		if e := v.at(w, 1); e != nil {
			r, processed := traffic(e)
			cells = []any{series, e.N, r, float64(processed) / float64(max(r, 1))}
		}
		for i, p := range v.procs {
			e := v.at(w, p)
			if e == nil || e.NsFast == 0 {
				cells = append(cells, "-")
				continue
			}
			r, processed := traffic(e)
			pt := point{float64(processed) / float64(max(r, 1)), float64(processed) / (float64(e.NsFast) / 1e9)}
			cells = append(cells, pt.throughput)
			if onCurve {
				curve[i] = append(curve[i], pt)
			}
		}
		t.AddRow(cells...)
	}
	for _, w := range v.sel("fig1", "", "", "") {
		row(strings.TrimPrefix(w.Impl, "b")+" buckets", w, true)
	}
	for _, w := range append(v.sel("table3", "", "julienne", "rmat"), v.sel("table3", "setcover", "julienne", "")...) {
		row(w.App, w, false)
	}
	v.table("Figure 1: bucket throughput vs. identifiers/round", t)
	fmt.Fprintln(v.out)
	for i, p := range v.procs {
		peak, half, below := summarize(curve[i])
		length := fmt.Sprintf("%.3g ids/round", half)
		if below {
			length = fmt.Sprintf("below the smallest point (%.3g ids/round)", half)
		}
		fmt.Fprintf(v.out, "P=%d: peak throughput %.3g ids/s; half-performance length %s\n", p, peak, length)
	}
}

// scalingFigure is one of Figures 2–5: the table3 rows of one
// application on the scaling inputs, read along procs.
func scalingFigure(title, app string, impls ...string) func(*view) {
	return func(v *view) {
		t := harness.NewTable("graph", "impl", "threads", "time", "median", "iqr")
		for _, w := range v.sel("table3", app, "", "") {
			if !slices.Contains(impls, w.Impl) || (app != "setcover" && !slices.Contains(scaling, w.Graph)) {
				continue
			}
			for _, p := range v.procs {
				e := v.at(w, p)
				t.AddRow(w.Graph, w.Impl, p, fast(e), med(e), iqr(e))
			}
		}
		v.table(title, t)
	}
}

// ablation prints the design choices the paper calls out that are
// still code: §3.3's open-range size nB and Ligra+ compression (§1).
// The nB = 128 and CSR rows are table3's.
func (v *view) ablation() {
	p := v.maxProcs()
	tp := fmt.Sprintf("T(%d)", p)
	base := v.sel("table3", "kcore", "julienne", "rmat")

	t := harness.NewTable("nB", "T(1)", tp, "bucket moves", "range advances")
	for _, w := range append(base, v.sel("ablation", "kcore", "", "rmat")...) {
		nb, isRangeSize := strings.CutPrefix(w.Impl, "nB")
		if w.Impl == "julienne" {
			nb = "128 (default)"
		} else if !isRangeSize {
			continue
		}
		e := v.at(w, 1)
		t.AddRow(nb, fast(e), fast(v.at(w, p)), counter(e, obs.CtrBucketMoved), counter(e, obs.CtrBucketRangeAdvances))
	}
	v.table("Ablation: open-range size nB (overflow traffic vs. exactness)", t)

	t = harness.NewTable("graph", "csr bytes", "compressed bytes", "ratio", "csr T(1)", "compressed T(1)", "csr "+tp, "compressed "+tp)
	for _, w := range v.sel("ablation", "kcore", "compressed", "") {
		csr := Workload{Artifact: "table3", App: "kcore", Impl: "julienne", Graph: w.Graph}
		e := v.at(w, 1)
		size := cell(e, func(e *Entry) any { return float64(e.Answer["compressed_bytes"]) / float64(e.Answer["csr_bytes"]) })
		t.AddRow(w.Graph, answer(e, "csr_bytes"), answer(e, "compressed_bytes"), size,
			fast(v.at(csr, 1)), fast(e), fast(v.at(csr, p)), fast(v.at(w, p)))
	}
	v.table("Ablation: CSR vs. Ligra+-style compressed traversal", t)
}
