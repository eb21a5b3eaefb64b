package bucket

import (
	"testing"

	"julienne/internal/gen"
	"julienne/internal/rng"
)

// benchUpdateStream pre-computes a realistic (identifier, dest) update
// stream so the benchmark isolates UpdateBuckets itself.
func benchUpdateStream(b *testing.B, opt Options, k int) (*Par, []uint32, []Dest) {
	b.Helper()
	n := 1 << 18
	d := make([]ID, n)
	for i := range d {
		d[i] = ID(rng.UintNAt(1, uint64(i), 512))
	}
	par := New(n, func(i uint32) ID { return d[i] }, Increasing, opt)
	ids := make([]uint32, k)
	dests := make([]Dest, k)
	for j := 0; j < k; j++ {
		v := uint32(rng.UintNAt(2, uint64(j), uint64(n)))
		prev := d[v]
		next := prev / 2
		d[v] = next
		ids[j] = v
		dest := par.GetBucket(prev, next)
		if dest == None {
			dest = Dest(0)
		}
		dests[j] = dest
	}
	return par, ids, dests
}

func BenchmarkUpdateBucketsHistogram(b *testing.B) {
	par, ids, dests := benchUpdateStream(b, Options{}, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.UpdateBuckets(len(ids), func(j int) (uint32, Dest) { return ids[j], dests[j] })
	}
	b.SetBytes(int64(len(ids) * 8))
}

// BenchmarkUpdateBucketsOneBlock is the round of a small-frontier run
// (wBFS on a grid, most k-core rounds): NextBucket hands over 64
// identifiers and UpdateBuckets moves them all to the next bucket — a
// batch far below one block — with the default open range. Extraction
// recycles the chunks each batch allocates, so the loop runs in the
// steady state a real run reaches.
func BenchmarkUpdateBucketsOneBlock(b *testing.B) {
	const k = 64
	d := make([]ID, k)
	par := New(k, func(i uint32) ID { return d[i] }, Increasing, Options{})
	var ids []uint32
	var dest Dest
	move := func(j int) (uint32, Dest) { return ids[j], dest }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var cur ID
		cur, ids = par.NextBucket()
		for _, v := range ids {
			d[v] = cur + 1
		}
		dest = par.GetBucket(cur, cur+1)
		par.UpdateBuckets(len(ids), move)
	}
}

// BenchmarkFill times the bulk insert in ns per identifier, in its two
// uses: a borrowed structure's fill over [0, n) by the degrees of an
// RMAT graph, as k-core's Loop.With makes it (the drain included), and
// a range advance that re-inserts an overflow bucket of n−1 copies
// spread over 1,024 buckets (with the compaction of the bucket it lands
// on).
func BenchmarkFill(b *testing.B) {
	const n = 1 << 16
	g := gen.RMAT(n, 1<<20, true, 1)
	deg := make([]ID, n)
	for v := range deg {
		deg[v] = ID(g.OutDegree(uint32(v)))
	}
	perID := func(b *testing.B, ids int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ids), "ns/id")
	}
	b.Run("borrowed-rmat", func(b *testing.B) {
		d := func(i uint32) ID { return deg[i] }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Loop{}.With(n, nil, d, Increasing, Options{}, func(*Par) {})
		}
		perID(b, n)
	})
	b.Run("advance", func(b *testing.B) {
		far := make([]ID, n)
		for i := range far {
			far[i] = ID(1000 + rng.UintNAt(4, uint64(i), 1024))
		}
		far[0] = 0
		d := func(i uint32) ID { return far[i] }
		b.ReportAllocs()
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			Loop{}.With(n, nil, d, Increasing, Options{}, func(p *Par) {
				p.NextBucket() // bucket 0; the open range is then exhausted
				b.StartTimer()
				p.NextBucket()
				b.StopTimer()
			})
		}
		perID(b, n-1)
	})
}
