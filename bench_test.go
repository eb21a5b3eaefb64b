package julienne

import (
	"testing"

	"julienne/internal/bench"
)

// BenchmarkWorkloads runs the internal/bench registry — every row of
// every table and figure cmd/bench measures — under the testing
// harness, so any row can be profiled:
//
//	go test -run xxx -bench 'Workloads/table3/kcore/julienne/rmat$' -cpuprofile cpu.out .
//
// -short selects the CI-sized inputs. Committed numbers come from
// cmd/bench (`make bench`), not from here.
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range bench.Workloads(testing.Short()) {
		b.Run(w.Key(), func(b *testing.B) {
			w.Run(nil) // builds the input outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Run(nil)
			}
		})
	}
}
