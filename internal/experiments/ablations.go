package experiments

import (
	"julienne/internal/algo/kcore"
	"julienne/internal/bucket"
	"julienne/internal/compress"
	"julienne/internal/harness"
)

// Ablations measures the design choices the paper calls out:
//
//   - §3.3 open-range size nB (default 128) and the overflow bucket
//   - §1/Ligra+ compressed vs. plain CSR traversal
//
// Three alternatives the paper measures and ships without — §3.3's
// semisort-based updateBuckets and internal prev map, §4.2's
// light/heavy edge split — were measured, agreed with the paper, and
// were deleted; EXPERIMENTS.md records the numbers and the last
// commits that regenerate them.
func (s *Suite) Ablations() {
	s.ablationRangeSize()
	s.ablationCompression()
}

func (s *Suite) ablationRangeSize() {
	s.section("Ablation: open-range size nB (overflow traffic vs. exactness)")
	t := harness.NewTable("nB", "k-core time", "bucket moves", "range advances")
	g := s.Graphs()[1].G
	for _, nb := range []int{16, 128, 1024, 1 << 20} {
		opt := kcore.Options{Buckets: bucket.Options{OpenBuckets: nb}}
		d := harness.TimeMedian(s.reps(), func() { kcore.Coreness(g, opt) })
		res := kcore.Coreness(g, opt)
		t.AddRow(nb, d, res.BucketStats.Moved, res.BucketStats.RangeAdvances)
	}
	t.Render(s.W)
}

func (s *Suite) ablationCompression() {
	s.section("Ablation: CSR vs. Ligra+-style compressed traversal")
	t := harness.NewTable("graph", "csr bytes", "compressed bytes", "ratio",
		"k-core csr", "k-core compressed")
	for _, ng := range []NamedGraph{s.Graphs()[1], s.Graphs()[4]} {
		c := compress.FromCSR(ng.G)
		rawBytes := ng.G.NumEdges() * 4
		csrT := harness.TimeMedian(s.reps(), func() { kcore.Coreness(ng.G, kcore.Options{}) })
		cmpT := harness.TimeMedian(s.reps(), func() { kcore.Coreness(c, kcore.Options{}) })
		t.AddRow(ng.Name, rawBytes, c.SizeBytes(),
			float64(c.SizeBytes())/float64(rawBytes), csrT, cmpT)
	}
	t.Render(s.W)
}
