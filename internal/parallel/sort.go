package parallel

// SortByKey sorts items ascending by a 64-bit key, stably, using a
// parallel least-significant-digit radix sort (8-bit digits). It is
// the sorting substrate for graph construction: CSR builds sort edge
// lists by (source, target), and at graph scale comparison sorts
// dominate build time. Work O(n · passes), depth O(passes · (n/P + P));
// passes over constant digits are skipped, so small key ranges sort in
// one or two passes.
//
// The input slice is returned sorted (the implementation ping-pongs
// between the input and one scratch buffer and copies back if the
// final pass lands in scratch).
func SortByKey[T any](items []T, key func(T) uint64) []T {
	n := len(items)
	if n < 2 {
		return items
	}
	defer rewrapPanic()
	const (
		digitBits = 8
		radix     = 1 << digitBits
		mask      = radix - 1
	)
	// Which digit positions vary? OR of (key XOR firstKey) reveals the
	// bits that differ anywhere.
	first := key(items[0])
	varying := Reduce(n, 0, uint64(0),
		func(i int) uint64 { return key(items[i]) ^ first },
		func(a, b uint64) uint64 { return a | b })
	if varying == 0 {
		return items // all keys equal
	}

	src, dst := items, make([]T, n)
	nb, blockSize, _ := blocks(n, DefaultGrain)
	counts := make([]uint32, radix*nb)

	for shift := 0; shift < 64; shift += digitBits {
		if (varying>>shift)&mask == 0 {
			continue // this digit is constant everywhere
		}
		clear(counts)
		// Pass 1: per-block digit histograms, digit-major layout so a
		// single scan yields stable scatter offsets.
		from, to := src, dst // the passes capture these, not the swapped pair
		For(nb, 1, func(b int) {
			for i, hi := b*blockSize, min((b+1)*blockSize, n); i < hi; i++ {
				d := (key(from[i]) >> shift) & mask
				counts[int(d)*nb+b]++
			}
		})
		Scan(counts, counts)
		// Pass 2: stable scatter.
		For(nb, 1, func(b int) {
			for i, hi := b*blockSize, min((b+1)*blockSize, n); i < hi; i++ {
				d := (key(from[i]) >> shift) & mask
				slot := int(d)*nb + b
				to[counts[slot]] = from[i]
				counts[slot]++
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
	return items
}
