// The benchmark package owns its clock and its seeded math/rand/v2
// streams; clean.
package benchmark

import (
	"math/rand/v2"
	"time"
)

func sample(seed uint64) (int, time.Time) {
	r := rand.New(rand.NewPCG(seed, 1))
	return r.IntN(6), time.Now()
}
