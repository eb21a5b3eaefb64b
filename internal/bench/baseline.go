package bench

// The pinned pre-arena baselines: go-test benchmark numbers measured at
// commit 93371f2 (the tree immediately before the scratch-arena /
// allocation-free hot-path work), via
//
//	go test -run xxx -bench <name> -benchmem
//
// on the single-CPU development container. They are data, not code:
// regenerating them requires checking out that commit, so they are
// committed here and embedded into every report to keep the
// before/after comparison attached to the numbers it explains.

var bucketBaseline = Baseline{
	Commit: "93371f2",
	Note:   "pre-arena tree, go test -bench -benchmem, GOMAXPROCS=1 container",
	Entries: []GoBench{
		{Name: "BenchmarkUpdateBucketsHistogram", NsPerOp: 1231211, BytesPerOp: 738931, AllocsPerOp: 12},
		{Name: "BenchmarkNextBucket", NsPerOp: 29515264, BytesPerOp: 5869045, AllocsPerOp: 6113},
	},
}

var algosBaseline = Baseline{
	Commit: "93371f2",
	Note:   "pre-arena tree, go test -bench -benchmem, GOMAXPROCS=1 container",
	Entries: []GoBench{
		{Name: "BenchmarkKCoreRecorderOff", NsPerOp: 5681247, BytesPerOp: 2806163, AllocsPerOp: 16266},
		{Name: "BenchmarkTable3WBFSJulienne", NsPerOp: 3036056, BytesPerOp: 1593523, AllocsPerOp: 7406},
		{Name: "BenchmarkTable3DeltaJulienne", NsPerOp: 7336730, BytesPerOp: 3232062, AllocsPerOp: 16569},
		{Name: "BenchmarkTable3SetCoverJulienne", NsPerOp: 11126321, BytesPerOp: 4950537, AllocsPerOp: 59710},
	},
}
