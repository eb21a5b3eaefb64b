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

// eightBuckets holds identifiers [0, 64) in buckets 0..7, eight each.
func eightBuckets(l Loop) *countingStructure {
	return &countingStructure{Structure: New(64, func(i uint32) ID { return i / 8 }, Increasing, Options{Recorder: l.Recorder})}
}

// TestLoopRecordsEveryRound pins what Run records per round: one
// RoundMetrics numbered 1…R whose bucket deltas add up to the
// structure's totals, which the trace renders as a span named after the
// kernel with its bucket and frontier.
func TestLoopRecordsEveryRound(t *testing.T) {
	rec := obs.NewRecorder()
	l := Loop{Algo: "test", Recorder: rec}
	b := eightBuckets(l)
	rounds, err := l.Run(b, func(_ ID, ids []uint32) (int64, bool) {
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
	rounds, err := l.Run(b, func(_ ID, _ []uint32) (int64, bool) {
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

// TestLoopStopsExtractingWhenDone: once round reports done, Run makes
// no further extraction, so a kernel that knows it has finished keeps
// the structure's counters where its last round left them.
func TestLoopStopsExtractingWhenDone(t *testing.T) {
	l := Loop{Algo: "test"}
	b := eightBuckets(l)
	rounds, err := l.Run(b, func(id ID, _ []uint32) (int64, bool) { return 0, id == 1 })
	if rounds != 2 || err != nil || b.extractions != 2 || b.Stats().BucketsReturned != 2 {
		t.Errorf("Run = (%d, %v) after %d extractions (%d returned), want 2 rounds, 2 extractions",
			rounds, err, b.extractions, b.Stats().BucketsReturned)
	}
}

// TestWithDrainsWhatARunLeft: a run that stops after its first round
// leaves most of its identifiers in the structure it borrowed; the next
// run, over fewer identifiers, gets that structure back from the free
// list and still extracts exactly its own identifiers, each from its own
// bucket, with counters that start at zero.
func TestWithDrainsWhatARunLeft(t *testing.T) {
	l := Loop{Algo: "test"}
	l.With(64, nil, func(i uint32) ID { return i / 8 }, Increasing, Options{}, func(b *Par) {
		if rounds, _ := l.Run(b, func(ID, []uint32) (int64, bool) { return 0, true }); rounds != 1 {
			t.Fatalf("first run: %d rounds, want 1", rounds)
		}
	})
	l.With(16, nil, func(i uint32) ID { return i % 4 }, Increasing, Options{}, func(b *Par) {
		got := drainAll(t, b)
		if len(got) != 16 {
			t.Errorf("second run extracted %d identifiers, want 16", len(got))
		}
		for id, bkt := range got {
			if bkt != id%4 {
				t.Errorf("identifier %d extracted from bucket %d, want %d", id, bkt, id%4)
			}
		}
		if s := b.Stats(); s.Extracted != 16 || s.BucketsReturned != 4 {
			t.Errorf("second run's counters %+v, want 16 extracted from 4 buckets", s)
		}
	})
}
