package proptest

import (
	"testing"

	"julienne/internal/algo/densest"
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
// totals, and every record carries the round's fork budget.
func TestRoundContract(t *testing.T) {
	old := parallel.SetProcs(1)
	defer parallel.SetProcs(old)
	g := gen.RMAT(1<<11, 1<<14, true, 5)
	wg := gen.LogWeights(g, 5)
	inst := gen.SetCover(400, 4000, 8, 5)
	costs := make([]float64, inst.Sets)
	for s := range costs {
		costs[s] = float64(1 + s%7)
	}
	// Each row runs its kernel and returns its rounds and bucket totals.
	rows := []struct {
		name string
		run  func(rec *obs.Recorder) (int64, bucket.Stats)
	}{
		{"kcore", func(rec *obs.Recorder) (int64, bucket.Stats) {
			r := kcore.Coreness(g, kcore.Options{Recorder: rec})
			return r.Rounds, r.BucketStats
		}},
		{"delta", func(rec *obs.Recorder) (int64, bucket.Stats) {
			r := sssp.DeltaStepping(wg, 0, 64, sssp.Options{Recorder: rec})
			return r.Rounds, r.BucketStats
		}},
		{"delta-fused", func(rec *obs.Recorder) (int64, bucket.Stats) {
			r := sssp.DeltaStepping(wg, 0, 64, sssp.Options{Recorder: rec, Fusion: bucket.MaximalFusion()})
			return r.Rounds, r.BucketStats
		}},
		{"setcover", func(rec *obs.Recorder) (int64, bucket.Stats) {
			r := setcover.Approx(inst.Graph, inst.Sets, setcover.Options{Recorder: rec})
			return r.Rounds, r.BucketStats
		}},
		{"setcover-weighted", func(rec *obs.Recorder) (int64, bucket.Stats) {
			r := setcover.ApproxWeighted(inst.Graph, inst.Sets, costs, setcover.Options{Recorder: rec})
			return r.Rounds, r.BucketStats
		}},
		{"charikar", func(rec *obs.Recorder) (int64, bucket.Stats) {
			// densest.Result has no BucketStats: the structure's own
			// counters stand in for them.
			r := densest.CharikarWithOptions(g, densest.Options{Recorder: rec})
			return r.Rounds, bucket.Stats{
				Extracted: rec.Counter(obs.CtrBucketExtracted.Name()),
				Moved:     rec.Counter(obs.CtrBucketMoved.Name()),
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			rounds, stats := row.run(rec)
			if rounds < 2 || int64(rec.NumRounds()) != rounds {
				t.Fatalf("%d rounds recorded, Result.Rounds = %d (want ≥ 2 and equal)", rec.NumRounds(), rounds)
			}
			var extracted, moved, unbudgeted int64
			for i, m := range rec.Rounds() {
				if m.Round != int64(i+1) {
					t.Fatalf("record %d is round %d: rounds must run 1…%d without gaps", i, m.Round, rounds)
				}
				if m.Forked+m.Inline < 1 {
					unbudgeted++
				}
				extracted += m.Extracted
				moved += m.Moved
			}
			if unbudgeted > 0 {
				t.Errorf("%d of %d rounds record no fork budget (Forked+Inline = 0)", unbudgeted, rounds)
			}
			if extracted != stats.Extracted || moved != stats.Moved {
				t.Errorf("rounds sum to %d extracted / %d moved, the run to %d / %d",
					extracted, moved, stats.Extracted, stats.Moved)
			}
		})
	}
}
