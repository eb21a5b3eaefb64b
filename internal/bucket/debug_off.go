//go:build !julienne_debug

package bucket

// This file is the default (release) half of the julienne_debug pair:
// every assertion hook is an empty, inlinable no-op, so the invariant
// checks in debug_on.go cost nothing unless the build is tagged
// `julienne_debug`. See debug_on.go for the invariants themselves.

// DebugEnabled reports whether invariant assertions are compiled in.
const DebugEnabled = false

// debugState carries the shadow bookkeeping the assertions need; it is
// empty in release builds so the structs pay no memory cost.
type debugState struct{}

func (b *Par) debugPoisonArena()                                  {}
func (b *Par) debugCheckExtract(id ID, live []uint32)             {}
func (b *Par) debugCheckUpdate(k int, f func(int) (uint32, Dest)) {}
func (b *Par) debugCheckUpdateTotals(k int, moved, skipped int64) {}
func (b *Par) debugCheckStructure()                               {}
func (b *Par) debugCheckSeed(seed []uint32)                       {}

func (s *Seq) debugPoisonArena()                                  {}
func (s *Seq) debugCheckExtract(id ID, live []uint32)             {}
func (s *Seq) debugCheckUpdateTotals(k int, moved, skipped int64) {}
