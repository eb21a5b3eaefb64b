package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file pins the "no torn scrapes" contract for the debug surface:
// /metrics and /debug/obs output produced while an algorithm mutates
// the Recorder must always be internally consistent. Concretely:
//
//   - every "# TYPE" line is followed by samples for that same metric
//     (a metric registered between two sync.Map walks used to appear
//     with a missing or zero value);
//   - histogram cumulative bucket series are monotone, end in +Inf,
//     and agree with _count (samples recorded mid-snapshot used to
//     push the summed buckets past the count cell, producing
//     le="+Inf" < the last finite bucket);
//   - /debug/obs is always valid JSON;
//   - flight-recorder tails never contain torn records (writers here
//     publish all-equal fields, so any interleaving is detectable)
//     and their ticket sequence is strictly increasing.
//
// Run under -race via `make race`; the assertions also hold without it.

func TestExpositionHammer(t *testing.T) {
	rec := NewRecorder()
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Round writer: every field of the round equals the round number,
	// so a torn flight slot cannot masquerade as a valid record.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); !stop.Load(); i++ {
			rec.RecordRound(RoundMetrics{
				Algo: "hammer", Round: i, Bucket: uint32(i),
				FrontierSize: int(i), EdgesTraversed: i,
				Extracted: i, Moved: i, Skipped: i,
				Duration: time.Duration(i),
			})
		}
	}()
	// Metric writer: keeps registering fresh names so scrapes race
	// against sync.Map insertion, not just value updates. (Only a test
	// inside package obs can mint handles outside the names.go table.)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			rec.Inc(Counter{fmt.Sprintf("hammer.c%d", i%97)})
			rec.SetGauge(Gauge{fmt.Sprintf("hammer.g%d", i%31)}, int64(i))
			rec.Observe(Hist{fmt.Sprintf("hammer.h%d", i%13)}, int64(i%100000))
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := rec.WriteMetrics(&buf); err != nil {
			t.Fatalf("WriteMetrics: %v", err)
		}
		checkExposition(t, buf.String())

		buf.Reset()
		if err := rec.WriteDebugJSON(&buf); err != nil {
			t.Fatalf("WriteDebugJSON: %v", err)
		}
		var dump map[string]any
		if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
			t.Fatalf("debug dump is not valid JSON: %v\n%s", err, buf.String())
		}

		checkFlightTail(t, rec.FlightTail(64))
	}
	stop.Store(true)
	wg.Wait()
}

// checkExposition validates one Prometheus text scrape: TYPE lines
// immediately followed by their own samples, monotone cumulative
// histogram buckets terminated by +Inf, and _count agreeing with +Inf.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	value := func(line string) int64 {
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		return v
	}
	i := 0
	for i < len(lines) {
		fields := strings.Fields(lines[i])
		if len(fields) != 4 || fields[0] != "#" || fields[1] != "TYPE" {
			t.Fatalf("line %d: expected a TYPE line, got %q", i, lines[i])
		}
		name, kind := fields[2], fields[3]
		i++
		switch kind {
		case "counter", "gauge":
			if i >= len(lines) || !strings.HasPrefix(lines[i], name+" ") {
				t.Fatalf("TYPE %s %s not followed by its sample (torn name/value scrape)", name, kind)
			}
			if _, err := strconv.ParseFloat(strings.TrimPrefix(lines[i], name+" "), 64); err != nil {
				t.Fatalf("bad sample %q: %v", lines[i], err)
			}
			i++
		case "histogram":
			last := int64(-1)
			infVal := int64(-1)
			for i < len(lines) && strings.HasPrefix(lines[i], name+`_bucket{le="`) {
				v := value(lines[i])
				if v < last {
					t.Fatalf("non-monotone bucket series for %s: %d after %d", name, v, last)
				}
				last = v
				if strings.Contains(lines[i], `le="+Inf"`) {
					infVal = v
				} else if infVal >= 0 {
					t.Fatalf("%s: bucket after le=\"+Inf\": %q", name, lines[i])
				}
				i++
			}
			if infVal < 0 {
				t.Fatalf("%s: no le=\"+Inf\" bucket", name)
			}
			if i >= len(lines) || !strings.HasPrefix(lines[i], name+"_sum ") {
				t.Fatalf("%s: missing _sum", name)
			}
			i++
			if i >= len(lines) || !strings.HasPrefix(lines[i], name+"_count ") {
				t.Fatalf("%s: missing _count", name)
			}
			if c := value(lines[i]); c != infVal {
				t.Fatalf("%s: _count %d != le=\"+Inf\" %d", name, c, infVal)
			}
			i++
		default:
			t.Fatalf("unknown TYPE kind %q in %q", kind, lines[i-1])
		}
	}
}

// checkFlightTail validates one flight-recorder read: strictly
// increasing tickets and no torn payloads (the hammer writer publishes
// rounds whose fields are all equal to the round number).
func checkFlightTail(t *testing.T, recs []FlightRecord) {
	t.Helper()
	lastSeq := int64(0)
	for _, rec := range recs {
		if rec.Seq <= lastSeq {
			t.Fatalf("flight seq not increasing: %d after %d", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		r := rec.Round
		if int64(rec.FrontierSize) != r || int64(rec.Bucket) != r || rec.EdgesTraversed != r || rec.Extracted != r ||
			rec.Moved != r || rec.Skipped != r || rec.Duration != time.Duration(r) {
			t.Fatalf("torn flight record: %+v", rec)
		}
	}
}
