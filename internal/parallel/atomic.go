package parallel

import "sync/atomic"

// The paper's model (§2) assumes two atomic primitives: compare-and-swap,
// which is sync/atomic's CompareAndSwap, and writeMin (priority update),
// which this file provides. Both take O(1) work in the model; writeMin
// is the usual CAS loop that only retries while it would still improve
// the stored value, the "priority update" of Shun et al. [52] that the
// paper cites for low contention in practice.

// WriteMinUint32 atomically updates *addr to min(*addr, val) and reports
// whether it strictly decreased the stored value.
func WriteMinUint32(addr *uint32, val uint32) bool {
	for {
		old := atomic.LoadUint32(addr)
		if val >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, val) {
			return true
		}
	}
}

// WriteMinUint64 atomically updates *addr to min(*addr, val) and reports
// whether it strictly decreased the stored value.
func WriteMinUint64(addr *uint64, val uint64) bool {
	for {
		old := atomic.LoadUint64(addr)
		if val >= old {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, val) {
			return true
		}
	}
}
