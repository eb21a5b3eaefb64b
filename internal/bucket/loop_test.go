package bucket

import (
	"context"
	"errors"
	"testing"

	"julienne/internal/obs"
)

// countingStructure counts extraction calls on the structure it wraps.
type countingStructure struct {
	Structure
	extractions int
}

func (c *countingStructure) NextBucket() (ID, []uint32) {
	c.extractions++
	return c.Structure.NextBucket()
}

func (c *countingStructure) NextBucketFused(maxFrontier, maxSpan int) (ID, ID, []uint32) {
	c.extractions++
	return c.Structure.NextBucketFused(maxFrontier, maxSpan)
}

// eightBuckets holds identifiers [0, 64) in buckets 0..7, eight each.
func eightBuckets(l Loop) *countingStructure {
	return &countingStructure{Structure: l.New(64, func(i uint32) ID { return i / 8 }, Increasing, Options{})}
}

// TestLoopRecordsEveryRound pins what Run records per round: one span
// named after the kernel with its bucket and frontier, and one
// RoundMetrics numbered 1…R whose bucket deltas add up to the
// structure's totals.
func TestLoopRecordsEveryRound(t *testing.T) {
	rec := obs.NewRecorder()
	l := Loop{Algo: "test", Recorder: rec}
	b := eightBuckets(l)
	rounds, err := l.Run(b, func(first, last ID, ids []uint32) (int64, bool) {
		if first != last {
			t.Errorf("unfused round spans [%d, %d]", first, last)
		}
		return int64(2 * len(ids)), false
	})
	if err != nil || rounds != 8 {
		t.Fatalf("Run = (%d, %v), want (8, nil)", rounds, err)
	}
	var extracted int64
	for i, m := range rec.Rounds() {
		if m.Algo != "test" || m.Round != int64(i+1) || m.Bucket != ID(i) || m.FrontierSize != 8 || m.EdgesTraversed != 16 {
			t.Errorf("record %d = %+v", i, m)
		}
		extracted += m.Extracted
	}
	if rec.NumRounds() != 8 || extracted != b.Stats().Extracted {
		t.Errorf("%d records extracting %d, want 8 extracting %d", rec.NumRounds(), extracted, b.Stats().Extracted)
	}
	spans := 0
	for _, ev := range rec.Events() {
		if ev.Name == "test.round" {
			if ev.Args["bucket"] != int64(spans) || ev.Args["frontier"] != int64(8) {
				t.Errorf("span %d args = %v", spans, ev.Args)
			}
			spans++
		}
	}
	if spans != 8 {
		t.Errorf("%d round spans, want 8", spans)
	}
}

// TestLoopCancelsOnlyBetweenRounds cancels from inside round 3: the
// round finishes, no further bucket is extracted, and the error counts
// the three completed rounds, the last of which ends the flight tail.
func TestLoopCancelsOnlyBetweenRounds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.NewRecorder()
	l := Loop{Algo: "test", Recorder: rec, Ctx: ctx}
	b := eightBuckets(l)
	calls := 0
	rounds, err := l.Run(b, func(_, _ ID, _ []uint32) (int64, bool) {
		if calls++; calls == 3 {
			cancel()
		}
		return 0, false
	})
	var c *obs.Canceled
	if !errors.As(err, &c) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want *obs.Canceled wrapping context.Canceled", err)
	}
	if rounds != 3 || c.Algo != "test" || c.Rounds != 3 || calls != 3 || b.extractions != 3 {
		t.Errorf("rounds %d, Canceled{%q, %d}, %d round calls, %d extractions; want 3 of each",
			rounds, c.Algo, c.Rounds, calls, b.extractions)
	}
	if len(c.Tail) == 0 || c.Tail[len(c.Tail)-1].Round != 3 {
		t.Errorf("flight tail %+v does not end at round 3", c.Tail)
	}
}

// TestLoopDrainsFusedSegments runs one fused wave whose round relaxes an
// identifier back into its span: Run hands it back as a second segment
// of the same range, and a cancellation during the first segment stops
// the run before that segment.
func TestLoopDrainsFusedSegments(t *testing.T) {
	for _, stop := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		d := []ID{0, 1, 2, 3, 4, Nil}
		l := Loop{Algo: "test", Ctx: ctx, Fusion: MaximalFusion()}
		b := &countingStructure{Structure: l.New(len(d), func(i uint32) ID { return d[i] }, Increasing, Options{})}
		var segments [][]uint32
		rounds, err := l.Run(b, func(first, last ID, ids []uint32) (int64, bool) {
			if first != 0 || last != 4 {
				t.Errorf("segment spans [%d, %d], want [0, 4]", first, last)
			}
			segments = append(segments, append([]uint32(nil), ids...))
			if len(segments) == 1 {
				d[5] = 2 // relaxed into the span: routed to the lazy buffer
				dest := b.GetBucket(Nil, 2)
				b.UpdateBuckets(1, func(int) (uint32, Dest) { return 5, dest })
				if stop {
					cancel()
				}
			}
			return 0, false
		})
		cancel()
		want, wantErr := int64(2), false
		if stop {
			want, wantErr = 1, true
		}
		if rounds != want || (err != nil) != wantErr || int64(len(segments)) != want {
			t.Fatalf("stop=%v: Run = (%d, %v) over %d segments, want %d rounds", stop, rounds, err, len(segments), want)
		}
		if !stop && (len(segments[1]) != 1 || segments[1][0] != 5 || b.extractions != 2) {
			t.Errorf("second segment %v after %d extractions, want [5] after 2", segments[1], b.extractions)
		}
	}
}

// TestLoopStopsExtractingWhenDone: once round reports done, Run makes
// no further extraction, so a kernel that knows it has finished keeps
// the structure's counters where its last round left them.
func TestLoopStopsExtractingWhenDone(t *testing.T) {
	l := Loop{Algo: "test"}
	b := eightBuckets(l)
	rounds, err := l.Run(b, func(first, _ ID, _ []uint32) (int64, bool) { return 0, first == 1 })
	if rounds != 2 || err != nil || b.extractions != 2 || b.Stats().BucketsReturned != 2 {
		t.Errorf("Run = (%d, %v) after %d extractions (%d returned), want 2 rounds, 2 extractions",
			rounds, err, b.extractions, b.Stats().BucketsReturned)
	}
}
