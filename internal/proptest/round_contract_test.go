package proptest

import (
	"testing"

	"julienne/internal/algo/kcore"
	"julienne/internal/algo/setcover"
	"julienne/internal/algo/sssp"
	"julienne/internal/bucket"
	"julienne/internal/gen"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// TestRoundContract holds every bucketed kernel to the one round
// contract bucket.Loop gives them: a recorder sees exactly Result.Rounds
// records numbered 1…R, their bucket deltas add up to the run's
// totals, and the records carry the rounds' fork budget. A round below
// the fork cut-off may open no region at all, so the budget is checked
// per run: the records add up to no more than the run opened, and on
// the row whose rounds fork (k-core at P=2 on a graph big enough to
// cross the cut-off) they record those forks.
func TestRoundContract(t *testing.T) {
	defer parallel.SetProcs(parallel.SetProcs(1))
	g := gen.RMAT(1<<11, 1<<14, true, 5)
	big := gen.RMAT(1<<15, 1<<19, true, 5)
	wg := gen.LogWeights(g, 5)
	inst := gen.SetCover(400, 4000, 8, 5)
	// Each row runs its kernel and returns its rounds and bucket totals.
	// procs is the row's GOMAXPROCS; forks marks the row whose rounds
	// must record at least one forked region.
	rows := []struct {
		name  string
		procs int
		forks bool
		run   func(rec *obs.Recorder) (int64, bucket.Stats)
	}{
		{"kcore", 1, false, func(rec *obs.Recorder) (int64, bucket.Stats) {
			r := kcore.Coreness(g, kcore.Options{Recorder: rec})
			return r.Rounds, r.BucketStats
		}},
		{"kcore-p2", 2, true, func(rec *obs.Recorder) (int64, bucket.Stats) {
			r := kcore.Coreness(big, kcore.Options{Recorder: rec})
			return r.Rounds, r.BucketStats
		}},
		{"delta", 1, false, func(rec *obs.Recorder) (int64, bucket.Stats) {
			r := sssp.DeltaStepping(wg, 0, 64, sssp.Options{Recorder: rec})
			return r.Rounds, r.BucketStats
		}},
		{"setcover", 1, false, func(rec *obs.Recorder) (int64, bucket.Stats) {
			r := setcover.Approx(inst.Graph, inst.Sets, setcover.Options{Recorder: rec})
			return r.Rounds, r.BucketStats
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			parallel.SetProcs(row.procs)
			rec := obs.NewRecorder()
			before := parallel.ForkStats()
			rounds, stats := row.run(rec)
			run := parallel.ForkStats().Sub(before)
			if rounds < 2 || int64(rec.NumRounds()) != rounds {
				t.Fatalf("%d rounds recorded, Result.Rounds = %d (want ≥ 2 and equal)", rec.NumRounds(), rounds)
			}
			var extracted, moved int64
			var budget parallel.ForkCounts
			for i, m := range rec.Rounds() {
				if m.Round != int64(i+1) {
					t.Fatalf("record %d is round %d: rounds must run 1…%d without gaps", i, m.Round, rounds)
				}
				budget.Forked += m.Forked
				budget.Inline += m.Inline
				budget.Wakes += m.Wakes
				extracted += m.Extracted
				moved += m.Moved
			}
			if budget.Forked > run.Forked || budget.Inline > run.Inline || budget.Wakes > run.Wakes {
				t.Errorf("rounds record a fork budget of %+v, more than the whole run's %+v", budget, run)
			}
			if row.forks && budget.Forked < 1 {
				t.Errorf("the run forked %d regions, its rounds record %d", run.Forked, budget.Forked)
			}
			if extracted != stats.Extracted || moved != stats.Moved {
				t.Errorf("rounds sum to %d extracted / %d moved, the run to %d / %d",
					extracted, moved, stats.Extracted, stats.Moved)
			}
		})
	}
}
