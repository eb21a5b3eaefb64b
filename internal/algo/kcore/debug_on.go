//go:build julienne_debug

package kcore

import "fmt"

// Debug half of the julienne_debug assertion pair (see the matching
// files in internal/bucket). A shadow set of peeled vertices checks
// what a round's peelers rely on: each vertex is peeled once, at level
// k; no worker leaves a mark set; and a round that handed nothing back
// has exhausted its level, so the next extraction finds a higher one.
// CorenessLigra's steps are held to the same rules.

type debugState struct {
	peeled []bool
	queued []bool // a CorenessLigra step's next frontier, while it is checked
}

func (s *debugState) init(n int) { s.peeled, s.queued = make([]bool, n), make([]bool, n) }

// check records a round's peeled vertices — every peeler's traversed
// queue prefix — and asserts that each is peeled once with D == k and
// that no D still carries the mark; when the round handed nothing back
// (complete), it also asserts that no unpeeled vertex is left with
// D <= k.
func (s *debugState) check(d []uint32, k uint32, ps []peeler, complete bool) {
	for i := range ps {
		for _, v := range ps[i].queue[:ps[i].head] {
			if s.peeled[v] {
				panic(fmt.Sprintf("kcore debug: vertex %d peeled twice", v))
			}
			s.peeled[v] = true
			if d[v] != k {
				panic(fmt.Sprintf("kcore debug: vertex %d peeled at level %d has D = %d", v, k, d[v]))
			}
		}
	}
	for v, dv := range d {
		if dv&mark != 0 {
			panic(fmt.Sprintf("kcore debug: vertex %d still marked after the round at level %d (D = %#x)", v, k, dv))
		}
		if complete && !s.peeled[v] && dv <= k {
			panic(fmt.Sprintf("kcore debug: level %d peeled to its end, but unpeeled vertex %d has D = %d", k, v, dv))
		}
	}
}

// checkStep records a CorenessLigra step's frontier ids as peeled, each
// once, and asserts that its workers left no D marked and queued each
// vertex of the next frontier once, at D == k, none of them peeled
// before: a lost or duplicated compare-and-swap winner shows here. When
// the next frontier is empty the level is exhausted, so it also asserts
// that no unpeeled vertex is left with D <= k.
func (s *debugState) checkStep(d []uint32, k uint32, ids, next []uint32) {
	for _, v := range ids {
		if s.peeled[v] {
			panic(fmt.Sprintf("kcore debug: vertex %d peeled twice", v))
		}
		s.peeled[v] = true
	}
	for _, v := range next {
		switch {
		case s.peeled[v]:
			panic(fmt.Sprintf("kcore debug: vertex %d queued at level %d was peeled before", v, k))
		case s.queued[v]:
			panic(fmt.Sprintf("kcore debug: vertex %d queued twice at level %d", v, k))
		case d[v] != k:
			panic(fmt.Sprintf("kcore debug: vertex %d queued at level %d has D = %d", v, k, d[v]))
		}
		s.queued[v] = true
	}
	for _, v := range next {
		s.queued[v] = false
	}
	for v, dv := range d {
		if dv&mark != 0 {
			panic(fmt.Sprintf("kcore debug: vertex %d still marked after the step at level %d (D = %#x)", v, k, dv))
		}
		if len(next) == 0 && !s.peeled[v] && dv <= k {
			panic(fmt.Sprintf("kcore debug: level %d peeled to its end, but unpeeled vertex %d has D = %d", k, v, dv))
		}
	}
}
