package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"julienne/internal/gen"
	"julienne/internal/graph"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// TestRecorderHeapFlat pins that a server can leave its recorder on:
// mixed /sssp and /wbfs requests, whose rounds overflow the recorder's
// flight ring, leave the live heap flat once the ring is full. Every
// request is a cold run from a fresh source (the result cache holds
// one entry), so each records its rounds.
func TestRecorderHeapFlat(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("a heap measurement; the race detector makes it slow and adds nothing")
	}
	warm, requests := 500, 2000
	if testing.Short() {
		warm, requests = 300, 700
	}
	g := gen.LogWeights(gen.RMAT(1<<14, 1<<17, true, 3), 5)
	var srcs []int // non-isolated, so every request runs rounds
	for v := range g.NumVertices() {
		if g.OutDegree(graph.Vertex(v)) > 0 {
			srcs = append(srcs, v)
		}
	}
	rec := obs.NewRecorder()
	s := New(Config{Graph: g, Recorder: rec, CacheSize: 1})
	defer s.Close(context.Background())
	h := s.Handler()
	get := func(i int) {
		src := srcs[i*7919%len(srcs)]
		path := fmt.Sprintf("/sssp?src=%d", src)
		if i%2 == 1 {
			path = fmt.Sprintf("/wbfs?src=%d", src)
		}
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rw.Code, rw.Body)
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC() // and the sync.Pool victim caches the first one kept
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	for i := 0; i < warm; i++ {
		get(i)
	}
	before, roundsBefore := liveHeap(), rec.NumRounds()
	for i := warm; i < requests; i++ {
		get(i)
	}
	after, roundsAfter := liveHeap(), rec.NumRounds()

	measured := requests - warm
	perRequest := float64(after-before) / float64(measured)
	t.Logf("%d requests, %d rounds: live heap %+d B (%.0f B/request)",
		measured, roundsAfter-roundsBefore, after-before, perRequest)
	if perRequest > 1024 {
		t.Errorf("live heap grew %.0f B per request once the ring was full, want ≤ 1 KB", perRequest)
	}
	if kept := len(rec.Rounds()); roundsBefore <= kept {
		t.Errorf("%d rounds before measuring, %d retained: the warm-up did not fill the ring", roundsBefore, kept)
	}
}
