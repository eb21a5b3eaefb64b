package bucket

import (
	"sync"
	"testing"

	"julienne/internal/obs"
)

func TestStatsSub(t *testing.T) {
	cur := Stats{Extracted: 10, Moved: 8, Skipped: 6, BucketsReturned: 4, RangeAdvances: 2}
	prev := Stats{Extracted: 7, Moved: 3, Skipped: 6, BucketsReturned: 1, RangeAdvances: 0}
	d := cur.Sub(prev)
	want := Stats{Extracted: 3, Moved: 5, Skipped: 0, BucketsReturned: 3, RangeAdvances: 2}
	if d != want {
		t.Fatalf("Sub=%+v, want %+v", d, want)
	}
	if z := cur.Sub(cur); z != (Stats{}) {
		t.Fatalf("x.Sub(x)=%+v, want zero", z)
	}
}

// drain peels a simple structure where identifier i starts in bucket
// i%buckets and every extracted identifier is moved once to bucket+1
// before going to Nil.
func drain(b Structure, d []ID) {
	for {
		cur, ids := b.NextBucket()
		if cur == Nil {
			return
		}
		type upd struct {
			id   uint32
			dest Dest
		}
		var ups []upd
		for _, id := range ids {
			prev := d[id]
			next := Nil
			if prev == cur && cur < 4 {
				next = cur + 1
			}
			d[id] = next
			if dest := b.GetBucket(prev, next); dest != None {
				ups = append(ups, upd{id, dest})
			}
		}
		b.UpdateBuckets(len(ups), func(j int) (uint32, Dest) { return ups[j].id, ups[j].dest })
	}
}

// TestStatsConcurrentReaders runs structure operations while another
// goroutine polls Stats(). Meaningful under -race: it fails there if
// Stats() reads non-atomically against the implementations' writes.
func TestStatsConcurrentReaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(d []ID) Structure
	}{
		{"par", func(d []ID) Structure {
			return New(len(d), func(i uint32) ID { return d[i] }, Increasing, Options{})
		}},
		{"seq", func(d []ID) Structure {
			return NewSeq(len(d), func(i uint32) ID { return d[i] }, Increasing)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4096
			d := make([]ID, n)
			for i := range d {
				d[i] = ID(i % 8)
			}
			b := tc.mk(d)
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last Stats
				for {
					select {
					case <-done:
						return
					default:
					}
					st := b.Stats()
					if st.Extracted < last.Extracted || st.Moved < last.Moved {
						t.Error("cumulative stats went backwards")
						return
					}
					last = st
				}
			}()
			drain(b, d)
			close(done)
			wg.Wait()
			st := b.Stats()
			if st.Extracted == 0 || st.BucketsReturned == 0 {
				t.Fatalf("no traffic recorded: %+v", st)
			}
		})
	}
}

// TestRecorderMirrorsStats checks that the obs counters a structure
// reports agree with its own cumulative Stats.
func TestRecorderMirrorsStats(t *testing.T) {
	const n = 2048
	mkD := func() []ID {
		d := make([]ID, n)
		for i := range d {
			d[i] = ID(i % 8)
		}
		return d
	}

	t.Run("par", func(t *testing.T) {
		rec := obs.NewRecorder()
		d := mkD()
		b := New(n, func(i uint32) ID { return d[i] }, Increasing, Options{Recorder: rec})
		drain(b, d)
		checkMirror(t, b.Stats(), rec)
	})
	t.Run("seq", func(t *testing.T) {
		rec := obs.NewRecorder()
		d := mkD()
		b := NewSeq(n, func(i uint32) ID { return d[i] }, Increasing).Observe(rec)
		drain(b, d)
		checkMirror(t, b.Stats(), rec)
	})
}

func checkMirror(t *testing.T, st Stats, rec *obs.Recorder) {
	t.Helper()
	if st.Extracted == 0 || st.Moved == 0 {
		t.Fatalf("workload produced no traffic: %+v", st)
	}
	pairs := []struct {
		ctr  obs.Counter
		want int64
	}{
		{obs.CtrBucketExtracted, st.Extracted},
		{obs.CtrBucketMoved, st.Moved},
		{obs.CtrBucketSkipped, st.Skipped},
		{obs.CtrBucketReturned, st.BucketsReturned},
		{obs.CtrBucketRangeAdvances, st.RangeAdvances},
	}
	for _, p := range pairs {
		if got := rec.Counter(p.ctr.Name()); got != p.want {
			t.Errorf("%s=%d, stats say %d", p.ctr.Name(), got, p.want)
		}
	}
}
