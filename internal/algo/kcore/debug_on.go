//go:build julienne_debug

package kcore

import "fmt"

// Debug half of the julienne_debug assertion pair (see the matching
// files in internal/bucket). A shadow set of peeled vertices checks
// what the local arm of a round relies on: a round that handed nothing
// back has exhausted its level, so the next extraction finds a higher
// one.

type debugState struct {
	peeled []bool
}

func (s *debugState) init(n int) { s.peeled = make([]bool, n) }

// peel records a round's peeled vertices; a vertex is peeled once.
func (s *debugState) peel(vs []uint32) {
	for _, v := range vs {
		if s.peeled[v] {
			panic(fmt.Sprintf("kcore debug: vertex %d peeled twice", v))
		}
		s.peeled[v] = true
	}
}

// checkLocal records a local round's peeled vertices and asserts that
// each has D == k; when the round handed nothing back (complete), it
// also asserts that no unpeeled vertex is left with D <= k.
func (s *debugState) checkLocal(d []uint32, k uint32, peeled []uint32, complete bool) {
	s.peel(peeled)
	for _, v := range peeled {
		if d[v] != k {
			panic(fmt.Sprintf("kcore debug: vertex %d peeled at level %d has D = %d", v, k, d[v]))
		}
	}
	if !complete {
		return
	}
	for v, dv := range d {
		if !s.peeled[v] && dv <= k {
			panic(fmt.Sprintf("kcore debug: level %d peeled to its end, but unpeeled vertex %d has D = %d", k, v, dv))
		}
	}
}
