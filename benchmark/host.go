package main

import (
	"math"
	"time"
)

// The boxes this benchmark runs on are small shared VMs. Memory-bound
// code on them slows down by up to half for minutes at a time (noisy
// neighbours; NOISE.md has the logs), which is longer than a run, so no
// statistic over one run's samples can remove it. What does remove most
// of it is to measure the host alongside the system: a hostProbe times
// a fixed piece of the benchmark's own code between blocks of
// operations, and every gated timing is scaled by
// refNominalS ÷ (the probe's time next to the sample, scaleSince). The result is in
// seconds of a host on which the probe takes refNominalS, which is what
// the quiet dev box shows; the unscaled numbers are per-layer metrics.

const (
	refVertices = 1 << 17
	refEdges    = 1 << 22
	// refSweeps is the number of sweeps in one probe; the fastest counts.
	refSweeps = 5
	// refNominalS is the seconds one sweep takes on the quiet 2-vCPU dev
	// box. It only fixes the unit: changing it scales every gated timing
	// by the same factor.
	refNominalS = 0.0053
)

// hostProbe is the reference: a scatter-add of refEdges pseudo-random
// targets into refVertices counters. Like the kernels it streams an
// edge array much larger than the caches (16 MiB) and updates a vertex
// array that fits in them, it is sequential, allocates nothing, and
// calls nothing outside this file, so no change to the system moves it.
type hostProbe struct {
	tgt []uint32
	acc []uint32
	// probes are the seconds of every probe of the run, in order; last
	// is the latest, the start of the interval being measured.
	probes []float64
	last   float64
}

func newHostProbe() *hostProbe {
	h := &hostProbe{tgt: make([]uint32, refEdges), acc: make([]uint32, refVertices)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range h.tgt {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.tgt[i] = uint32(x % refVertices)
	}
	h.probe() // touch every page before the first probe that counts
	h.probes = h.probes[:0]
	return h
}

// probe times refSweeps sweeps and returns the seconds of the fastest.
func (h *hostProbe) probe() float64 {
	best := math.Inf(1)
	for s := 0; s < refSweeps; s++ {
		t0 := time.Now()
		for _, t := range h.tgt {
			h.acc[t]++
		}
		best = min(best, time.Since(t0).Seconds())
	}
	h.probes = append(h.probes, best)
	return best
}

// mark probes the host at the start of a measured interval.
func (h *hostProbe) mark() { h.last = h.probe() }

// scaleSince probes the host at the end of the interval that began at
// the previous probe and returns the factor that turns seconds measured
// in it into seconds of the nominal host: the faster of the two probes
// stands for the host's speed over the interval. The next interval
// begins here.
func (h *hostProbe) scaleSince() float64 {
	before := h.last
	h.mark()
	return refNominalS / min(before, h.last)
}
