package bucket

import (
	"testing"

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
