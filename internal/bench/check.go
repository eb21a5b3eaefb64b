package bench

import (
	"errors"
	"fmt"
	"sort"

	"julienne/internal/obs"
)

// Check compares a fresh report with a committed one of the same kind
// and scale. Wall time is never compared (benchmark/NOISE.md: this host
// slows by up to half for minutes at a time). What is:
//
//   - exactly, for every entry at procs = 1, where a run is
//     deterministic per seed: n, m, rounds, every obs counter and every
//     answer counter, and that both reports hold the same set of entries;
//   - within allocSlack objects + allocTolerance: allocs_per_op at
//     procs = 1 (a GC cycle inside the samples empties a pool);
//   - nothing at procs > 1, where scheduling moves relaxation counts and
//     round counts by a few; those rows are held to CheckFusionAblation
//     and CheckForkBudget instead.
//
// The error names every entry and field that differs.
func Check(fresh, committed *Report) error {
	if fresh.Kind != committed.Kind || fresh.Smoke != committed.Smoke || fresh.Seed != committed.Seed {
		return fmt.Errorf("check: %s report (smoke=%v seed=%d) is not comparable with committed %s report (smoke=%v seed=%d)",
			fresh.Kind, fresh.Smoke, fresh.Seed, committed.Kind, committed.Smoke, committed.Seed)
	}
	atP1 := func(r *Report) map[string]*Entry {
		m := map[string]*Entry{}
		for i := range r.Results {
			if e := &r.Results[i]; e.Procs == 1 {
				m[e.Key()] = e
			}
		}
		return m
	}
	got, want := atP1(fresh), atP1(committed)
	var errs []error
	for _, key := range sortedKeys(want, got) {
		g, w := got[key], want[key]
		if g == nil || w == nil {
			errs = append(errs, fmt.Errorf("check: %s procs=1: in the fresh run: %v, in the committed report: %v", key, g != nil, w != nil))
			continue
		}
		scalars := func(e *Entry) map[string]int64 {
			return map[string]int64{"n": int64(e.N), "m": e.M, "rounds": e.Rounds}
		}
		for _, c := range []struct {
			prefix string
			g, w   map[string]int64
		}{{"", scalars(g), scalars(w)}, {"counters.", g.Counters, w.Counters}, {"answer.", g.Answer, w.Answer}} {
			for _, name := range sortedKeys(c.w, c.g) {
				if c.g[name] != c.w[name] {
					errs = append(errs, fmt.Errorf("check: %s procs=1: %s%s = %d, committed %d", key, c.prefix, name, c.g[name], c.w[name]))
				}
			}
		}
		if d := g.AllocsPerOp - w.AllocsPerOp; max(d, -d) > allocSlack+int64(allocTolerance*float64(w.AllocsPerOp)) {
			errs = append(errs, fmt.Errorf("check: %s procs=1: allocs_per_op = %d, committed %d (tolerance %d + %.0f%%)",
				key, g.AllocsPerOp, w.AllocsPerOp, allocSlack, 100*allocTolerance))
		}
	}
	return errors.Join(errs...)
}

// allocs_per_op may differ from the committed figure by allocSlack
// objects plus allocTolerance of it before Check fails.
const (
	allocSlack     = 8
	allocTolerance = 0.02
)

// sortedKeys returns the union of both maps' keys in sorted order.
func sortedKeys[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// unfusedOf maps each row of the fusion ablation (DESIGN.md §11) to the
// unfused table3 row it is read against.
var unfusedOf = map[string]string{
	"ablation/wbfs/fused/road":  "table3/wbfs/julienne/road",
	"ablation/delta/fused/road": "table3/delta/julienne/road",
}

// CheckFusionAblation verifies the fusion ablation's claim inside an
// algos report: every fused road-graph entry must have extracted
// strictly fewer bucket rounds than its unfused counterpart at the
// same procs point, and the wbfs pair — the road-like configuration
// fusion exists for — must show at least 3x fewer. Rounds are read
// from the obs bucket.buckets_returned counter of the instrumented
// run, never from wall time, so the gate is immune to machine noise.
func CheckFusionAblation(rep *Report) error {
	returned := map[string]int64{}
	for i := range rep.Results {
		e := &rep.Results[i]
		returned[at(e.Key(), e.Procs)] = e.Counters[obs.CtrBucketReturned.Name()]
	}
	checked := 0
	for i := range rep.Results {
		e := &rep.Results[i]
		plain, isFused := unfusedOf[e.Key()]
		if !isFused {
			continue
		}
		fused := returned[at(e.Key(), e.Procs)]
		unfused, ok := returned[at(plain, e.Procs)]
		if !ok {
			return fmt.Errorf("fusion ablation: %s (procs=%d) has no unfused %s entry to compare against", e.Key(), e.Procs, plain)
		}
		if fused <= 0 || unfused <= 0 {
			return fmt.Errorf("fusion ablation: %s vs %s (procs=%d): bucket.buckets_returned %d vs %d — counter missing from the instrumented run", e.Key(), plain, e.Procs, fused, unfused)
		}
		if fused >= unfused {
			return fmt.Errorf("fusion ablation: %s extracted %d bucket rounds at procs=%d, not fewer than unfused %s's %d", e.Key(), fused, e.Procs, plain, unfused)
		}
		if e.App == "wbfs" && 3*fused > unfused {
			return fmt.Errorf("fusion ablation: %s extracted %d bucket rounds at procs=%d vs unfused %d; want at least 3x fewer on the road-like graph", e.Key(), fused, e.Procs, unfused)
		}
		checked++
	}
	if checked == 0 {
		return errors.New("fusion ablation: report contains no fused road-graph entries")
	}
	return nil
}

// maxRoadForksPerRound is the fork budget CheckForkBudget holds wbfs on
// the road graph to at procs > 1: the frontiers there are tens of
// vertices, far below the parallel substrate's work cut-off, so a round
// that forks at all is the exception (the first bucket rounds after a
// range advance, at most). Before the cut-off every round forked.
const maxRoadForksPerRound = 0.05

// CheckForkBudget verifies, from the counters of the instrumented runs
// and never from wall time, that the many-small-rounds workload does
// not pay a fork per round: every table3/wbfs/julienne/road entry at
// procs > 1 must have gone through the helper pool in at most
// maxRoadForksPerRound of its rounds. It returns how many entries it
// checked (none on a single-CPU machine, which has no procs > 1 rows).
func CheckForkBudget(rep *Report) (checked int, err error) {
	for i := range rep.Results {
		e := &rep.Results[i]
		if e.Key() != "table3/wbfs/julienne/road" || e.Procs <= 1 {
			continue
		}
		if e.ForksPerRound == nil {
			return checked, fmt.Errorf("fork budget: %s (procs=%d) carries no parallel.forked counter", e.Key(), e.Procs)
		}
		if *e.ForksPerRound > maxRoadForksPerRound {
			return checked, fmt.Errorf("fork budget: %s (procs=%d) forked %.3f times per round over %d rounds; the cut-off should keep it at or below %.2f",
				e.Key(), e.Procs, *e.ForksPerRound, e.Rounds, maxRoadForksPerRound)
		}
		checked++
	}
	return checked, nil
}
