// Fixture for the norandtime analyzer: math/rand is forbidden outside
// internal/rng, bare time.Now outside internal/harness and
// internal/obs.
package a

import (
	"math/rand" // want "import of math/rand: use the seeded generators in internal/rng"
	"time"
)

func jitter() int64 {
	return rand.Int63()
}

func stamp() time.Time {
	return time.Now() // want "bare time.Now: read the clock through harness.Time"
}

// since is fine: only Now is the clock reading harness.Time owns;
// arithmetic on times obtained elsewhere is not flagged.
func since(t0, t1 time.Time) time.Duration {
	return t1.Sub(t0)
}
