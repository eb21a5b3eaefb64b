package bench

import (
	"sort"

	"julienne/internal/bucket"
	"julienne/internal/obs"
	"julienne/internal/rng"
)

// fanout is the simulated degree of the §3.4 microbenchmark.
const fanout = 8

// simulate runs the bucket-structure microbenchmark of §3.4 (Figure 1)
// once: a bucketing application on a degree-8 random graph.
//
// Protocol (verbatim from the paper): n identifiers start in uniformly
// random buckets out of b initial buckets and are traversed in
// increasing order. Each round extracts a set S; every extracted
// identifier picks 8 random neighbors v_0..v_7; a neighbor whose
// bucket exceeds cur moves to bucket max(cur, D(v_i)/2); otherwise its
// bucket is set to nullbkt so extracted identifiers are never
// reinserted. Moves to nullbkt are free and excluded from throughput.
func simulate(n, buckets int, seed uint64, rec *obs.Recorder) bucket.Stats {
	d := make([]bucket.ID, n)
	for i := range d {
		d[i] = bucket.ID(rng.UintNAt(seed, uint64(i), uint64(buckets)))
	}
	b := bucket.New(n, func(i uint32) bucket.ID { return d[i] }, bucket.Increasing, bucket.Options{Recorder: rec})
	ids := make([]uint32, 0, 1024)
	dests := make([]bucket.Dest, 0, 1024)
	feed := func(j int) (uint32, bucket.Dest) { return ids[j], dests[j] }
	for round := uint64(1); ; round++ {
		cur, extracted := b.NextBucket()
		if cur == bucket.Nil {
			return b.Stats()
		}
		ids, dests = ids[:0], dests[:0]
		for _, id := range extracted {
			for j := 0; j < fanout; j++ {
				v := uint32(rng.UintNAt(seed^0x5eed, round<<24|uint64(id)<<3|uint64(j), uint64(n)))
				prev := d[v]
				if prev == bucket.Nil {
					continue
				}
				next := bucket.Nil
				if prev > cur {
					next = max(cur, prev/2)
				}
				d[v] = next
				if dest := b.GetBucket(prev, next); dest != bucket.None {
					ids = append(ids, v)
					dests = append(dests, dest)
				}
			}
		}
		b.UpdateBuckets(len(ids), feed)
	}
}

// point is one data point of Figure 1: average identifiers processed
// per round (x) against identifiers processed per second (y).
type point struct {
	perRound, throughput float64
}

// summarize computes the two scalars §3.4 reads off Figure 1: the peak
// throughput, and the half-performance length — the identifiers/round
// at which the structure reaches half its peak, linearly interpolated
// between the points bracketing peak/2 (the paper: ≈10⁹ ids/s and
// ≈5·10⁵ ids/round, 144 threads). If every point already exceeds half
// the peak, the length lies below the smallest point: below is set and
// halfLength is that point's identifiers/round.
func summarize(pts []point) (peak, halfLength float64, below bool) {
	for _, p := range pts {
		peak = max(peak, p.throughput)
	}
	if peak == 0 {
		return 0, 0, false
	}
	ordered := append([]point(nil), pts...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].perRound < ordered[j].perRound })
	for i, p := range ordered {
		if p.throughput < peak/2 {
			continue
		}
		if i == 0 {
			return peak, p.perRound, true
		}
		prev := ordered[i-1]
		frac := (peak/2 - prev.throughput) / (p.throughput - prev.throughput)
		return peak, prev.perRound + frac*(p.perRound-prev.perRound), false
	}
	return peak, 0, false
}
