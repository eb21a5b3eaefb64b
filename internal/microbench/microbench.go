// Package microbench implements the bucket-structure microbenchmark of
// §3.4 (Figure 1): it simulates a bucketing-based application on a
// degree-8 random graph, measuring the structure's throughput
// (identifiers extracted + identifiers moved, per second) against the
// average number of identifiers processed per round.
//
// Protocol (verbatim from the paper): identifiers start in uniformly
// random buckets out of b initial buckets and are traversed in
// increasing order. Each round extracts a set S; every extracted
// identifier picks 8 random neighbors v_0..v_7; a neighbor whose
// bucket exceeds cur moves to bucket max(cur, D(v_i)/2); otherwise its
// bucket is set to nullbkt so extracted identifiers are never
// reinserted. Moves to nullbkt are free and excluded from throughput.
package microbench

import (
	"time"

	"julienne/internal/bucket"
	"julienne/internal/harness"
	"julienne/internal/rng"
)

// Config parameterizes one microbenchmark run.
type Config struct {
	// Identifiers is n, the number of bucketed identifiers.
	Identifiers int
	// Buckets is b, the number of initial buckets (the paper sweeps
	// 128, 256, 512, 1024).
	Buckets int
	// Fanout is the simulated degree (8 in the paper).
	Fanout int
	// Seed makes the run reproducible.
	Seed uint64
}

// Point is one data point of Figure 1.
type Point struct {
	Identifiers int
	Buckets     int
	// Rounds is the number of non-empty buckets extracted.
	Rounds int64
	// Processed is extracted + moved (the throughput numerator).
	Processed int64
	// AvgPerRound is Processed / Rounds (Figure 1's x axis).
	AvgPerRound float64
	// Elapsed is the wall-clock time of the run.
	Elapsed time.Duration
	// Throughput is Processed per second (Figure 1's y axis).
	Throughput float64
}

// Run executes the microbenchmark once.
func Run(cfg Config) Point {
	if cfg.Fanout <= 0 {
		cfg.Fanout = 8
	}
	n := cfg.Identifiers
	d := make([]bucket.ID, n)
	for i := range d {
		d[i] = bucket.ID(rng.UintNAt(cfg.Seed, uint64(i), uint64(cfg.Buckets)))
	}

	var b *bucket.Par
	elapsed := harness.Time(func() {
		b = bucket.New(n, func(i uint32) bucket.ID { return d[i] }, bucket.Increasing, bucket.Options{})

		ids := make([]uint32, 0, 1024)
		dests := make([]bucket.Dest, 0, 1024)
		round := uint64(0)
		for {
			cur, extracted := b.NextBucket()
			if cur == bucket.Nil {
				break
			}
			round++
			ids = ids[:0]
			dests = dests[:0]
			for _, id := range extracted {
				for j := 0; j < cfg.Fanout; j++ {
					v := uint32(rng.UintNAt(cfg.Seed^0x5eed, round<<24|uint64(id)<<3|uint64(j), uint64(n)))
					prev := d[v]
					if prev == bucket.Nil {
						continue
					}
					var next bucket.ID
					if prev > cur {
						next = max(cur, prev/2)
					} else {
						next = bucket.Nil
					}
					d[v] = next
					if dest := b.GetBucket(prev, next); dest != bucket.None {
						ids = append(ids, v)
						dests = append(dests, dest)
					}
				}
			}
			b.UpdateBuckets(len(ids), func(j int) (uint32, bucket.Dest) {
				return ids[j], dests[j]
			})
		}
	})

	st := b.Stats()
	p := Point{
		Identifiers: n,
		Buckets:     cfg.Buckets,
		Rounds:      st.BucketsReturned,
		Processed:   st.Throughput(),
		Elapsed:     elapsed,
	}
	if p.Rounds > 0 {
		p.AvgPerRound = float64(p.Processed) / float64(p.Rounds)
	}
	if s := elapsed.Seconds(); s > 0 {
		p.Throughput = float64(p.Processed) / s
	}
	return p
}

// Sweep runs the Figure 1 grid: for each bucket count, a range of
// identifier counts produces points with varying identifiers/round.
func Sweep(bucketCounts, identifierCounts []int, seed uint64) []Point {
	var pts []Point
	for _, b := range bucketCounts {
		for _, n := range identifierCounts {
			pts = append(pts, Run(Config{Identifiers: n, Buckets: b, Seed: seed}))
		}
	}
	return pts
}

// Summary holds the two scalar metrics §3.4 extracts from Figure 1:
// the peak throughput, and the half-performance length — the average
// identifiers/round at which the structure reaches half its peak
// (the paper measures ≈10⁹ ids/s and ≈5·10⁵ ids/round on 144 threads).
type Summary struct {
	PeakThroughput float64
	// HalfLength is linearly interpolated between the sweep points
	// bracketing peak/2; 0 if every point already exceeds half peak.
	HalfLength float64
}

// Summarize computes the §3.4 summary metrics from sweep points.
func Summarize(pts []Point) Summary {
	var s Summary
	for _, p := range pts {
		if p.Throughput > s.PeakThroughput {
			s.PeakThroughput = p.Throughput
		}
	}
	if s.PeakThroughput == 0 {
		return s
	}
	half := s.PeakThroughput / 2
	// Order points by identifiers/round and find the first crossing.
	ordered := append([]Point(nil), pts...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j-1].AvgPerRound > ordered[j].AvgPerRound; j-- {
			ordered[j-1], ordered[j] = ordered[j], ordered[j-1]
		}
	}
	for i, p := range ordered {
		if p.Throughput >= half {
			if i == 0 {
				return s // already above half at the smallest load
			}
			prev := ordered[i-1]
			frac := (half - prev.Throughput) / (p.Throughput - prev.Throughput)
			s.HalfLength = prev.AvgPerRound + frac*(p.AvgPerRound-prev.AvgPerRound)
			return s
		}
	}
	return s
}
