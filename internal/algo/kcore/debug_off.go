//go:build !julienne_debug

package kcore

// Release half of the julienne_debug assertion pair; see debug_on.go.

type debugState struct{}

func (s *debugState) init(n int)                                             {}
func (s *debugState) check(d []uint32, k uint32, ps []peeler, complete bool) {}
func (s *debugState) checkStep(d []uint32, k uint32, ids, next []uint32)     {}
