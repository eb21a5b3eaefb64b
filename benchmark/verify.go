package main

import (
	"fmt"
	"sync"

	"julienne"
)

// result is what one kernel call returns, reduced to what the benchmark
// checks and counts.
type result struct {
	coreness                   []uint32
	dist                       []int64
	rounds, edges, relaxations int64
	bucket                     julienne.BucketStats
	err                        error
}

// hash is FNV-1a over the result's values, one word at a time.
func (r result) hash() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range r.coreness {
		h = (h ^ uint64(c)) * prime
	}
	for _, d := range r.dist {
		h = (h ^ uint64(d)) * prime
	}
	return h
}

// oracleMaxN bounds the graphs on which the O(n²) oracles behind
// julienne.Verify* run; they take a minute at the full sizes. Beyond it
// results are checked against the sequential baselines (Batagelj–
// Zaversnik, heap Dijkstra), which the smoke scale in turn checks
// against the oracles.
const oracleMaxN = 1 << 12

func refCoreness(g *julienne.CSR) ([]uint32, error) {
	c := julienne.KCoreBZ(g)
	if g.NumVertices() <= oracleMaxN {
		if err := julienne.VerifyKCore(g, c); err != nil {
			return nil, fmt.Errorf("reference coreness disagrees with the oracle: %w", err)
		}
	}
	return c, nil
}

func refDist(g *julienne.CSR, src julienne.Vertex) ([]int64, error) {
	d := julienne.Dijkstra(g, src).Dist
	if g.NumVertices() <= oracleMaxN {
		if err := julienne.VerifySSSP(g, src, d); err != nil {
			return nil, fmt.Errorf("reference distances from %d disagree with the oracle: %w", src, err)
		}
	}
	return d, nil
}

// verifier counts operations attempted and operations that failed:
// panicked, returned an error or a non-200 status, or gave a wrong
// answer. Safe for the concurrent clients of the served workload.
type verifier struct {
	mu                sync.Mutex
	attempted, failed int
	first             string
	corrupt           bool
}

// check records one operation; a false ok counts it as failed.
func (v *verifier) check(ok bool, format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.attempted++
	if !ok {
		v.failed++
		if v.first == "" {
			v.first = fmt.Sprintf(format, args...)
		}
	}
}

// corruptOnce reports, once, that the caller should damage the answer
// it is about to check.
func (v *verifier) corruptOnce() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.corrupt
	v.corrupt = false
	return c
}

// checkResult verifies one kernel result against the reference hash.
func (v *verifier) checkResult(r result, want uint64, what string) {
	if r.err != nil {
		v.check(false, "%s: %v", what, r.err)
		return
	}
	if v.corruptOnce() {
		if len(r.dist) > 0 {
			r.dist = append([]int64(nil), r.dist...)
			r.dist[len(r.dist)/2]++
		} else {
			r.coreness = append([]uint32(nil), r.coreness...)
			r.coreness[len(r.coreness)/2]++
		}
	}
	got := r.hash()
	v.check(got == want, "%s: result hash %#x, reference %#x", what, got, want)
}
