package microbench

import (
	"testing"
)

func TestRunCompletes(t *testing.T) {
	p := Run(Config{Identifiers: 20000, Buckets: 128, Seed: 1})
	if p.Rounds == 0 {
		t.Fatal("no rounds")
	}
	if p.Processed < int64(p.Identifiers) {
		// Every identifier is extracted at least once (unless retired
		// to Nil before its bucket surfaces), so Processed is at least
		// a sizeable fraction of n.
		t.Logf("processed=%d n=%d", p.Processed, p.Identifiers)
	}
	if p.Throughput <= 0 || p.AvgPerRound <= 0 {
		t.Fatalf("bad derived stats: %+v", p)
	}
}

func TestDeterministicWorkload(t *testing.T) {
	a := Run(Config{Identifiers: 10000, Buckets: 256, Seed: 42})
	b := Run(Config{Identifiers: 10000, Buckets: 256, Seed: 42})
	if a.Rounds != b.Rounds || a.Processed != b.Processed {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	c := Run(Config{Identifiers: 10000, Buckets: 256, Seed: 43})
	if c.Processed == a.Processed && c.Rounds == a.Rounds {
		t.Log("different seed produced identical stats (possible but unlikely)")
	}
}

func TestMoreBucketsMeansFewerPerRound(t *testing.T) {
	small := Run(Config{Identifiers: 50000, Buckets: 128, Seed: 7})
	large := Run(Config{Identifiers: 50000, Buckets: 1024, Seed: 7})
	if large.AvgPerRound >= small.AvgPerRound {
		t.Fatalf("avg/round should shrink with more buckets: %v vs %v",
			large.AvgPerRound, small.AvgPerRound)
	}
}

func TestSweepShape(t *testing.T) {
	pts := Sweep([]int{128, 256}, []int{1000, 5000}, 1)
	if len(pts) != 4 {
		t.Fatalf("expected 4 points, got %d", len(pts))
	}
	for _, p := range pts {
		if p.Rounds == 0 || p.Processed == 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}

func TestSummarize(t *testing.T) {
	pts := []Point{
		{AvgPerRound: 10, Throughput: 100},
		{AvgPerRound: 100, Throughput: 600},
		{AvgPerRound: 1000, Throughput: 1000},
	}
	s := Summarize(pts)
	if s.PeakThroughput != 1000 {
		t.Fatalf("peak=%v", s.PeakThroughput)
	}
	// half = 500, crossed between (10,100) and (100,600):
	// frac = 400/500 = 0.8 -> 10 + 0.8*90 = 82.
	if s.HalfLength < 81.9 || s.HalfLength > 82.1 {
		t.Fatalf("half length %v want ~82", s.HalfLength)
	}
	if s2 := Summarize(nil); s2.PeakThroughput != 0 {
		t.Fatal("empty summarize")
	}
	// Every point above half peak -> HalfLength 0.
	flat := []Point{{AvgPerRound: 1, Throughput: 900}, {AvgPerRound: 2, Throughput: 1000}}
	if s3 := Summarize(flat); s3.HalfLength != 0 {
		t.Fatalf("flat half length %v", s3.HalfLength)
	}
}

func TestSummarizeRealSweep(t *testing.T) {
	pts := Sweep([]int{128}, []int{1 << 10, 1 << 14, 1 << 17}, 5)
	s := Summarize(pts)
	if s.PeakThroughput <= 0 {
		t.Fatal("no peak measured")
	}
}
