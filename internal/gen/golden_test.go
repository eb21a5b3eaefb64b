package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"julienne/internal/graph"
)

// csrHash is FNV-1a over a CSR's bytes: offsets, targets, weights (if
// any), then the symmetric flag. Two graphs with the same hash have
// the same adjacency in the same order, including the weight every
// duplicate edge kept.
func csrHash(g *graph.CSR) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64, size int) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:size])
	}
	var off uint64
	put(off, 8)
	for v := 0; v < g.NumVertices(); v++ {
		off += uint64(g.OutDegree(graph.Vertex(v)))
		put(off, 8)
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutEdges(graph.Vertex(v)) {
			put(uint64(u), 4)
		}
	}
	if g.Weighted() {
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.OutWeights(graph.Vertex(v)) {
				put(uint64(uint32(w)), 4)
			}
		}
	}
	if g.Symmetric() {
		put(1, 1)
	} else {
		put(0, 1)
	}
	return h.Sum64()
}

type goldenCase struct {
	name  string
	large bool // skipped under -short (the race and 32-bit passes)
	build func() *graph.CSR
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, f := range Families() {
		for _, s := range [][2]int{{0, 0}, {1, 4}, {2, 1}, {3, 48}, {5, 80}, {17, 40}, {1000, 16000}} {
			cs = append(cs, goldenCase{name: fmt.Sprintf("%s/n%d/m%d", f.Name, s[0], s[1]),
				build: func() *graph.CSR { return f.Build(s[0], s[1], 2017) }})
		}
	}
	for _, n := range []int{3, 5, 1000, 4097} {
		for _, sym := range []bool{false, true} {
			cs = append(cs, goldenCase{name: fmt.Sprintf("rmat/n%d/sym=%v", n, sym),
				build: func() *graph.CSR { return RMAT(n, 16*n, sym, 2017) }})
		}
	}
	cs = append(cs,
		goldenCase{name: "rmat/n1000/m0", build: func() *graph.CSR { return RMAT(1000, 0, true, 2017) }},
		goldenCase{name: "grid512/log", large: true,
			build: func() *graph.CSR { return LogWeights(Grid2D(512, 512), 2018) }},
		goldenCase{name: "rmat17", large: true,
			build: func() *graph.CSR { return RMAT(1<<17, 16<<17, true, 2017) }},
		goldenCase{name: "rmat17/heavy", large: true,
			build: func() *graph.CSR { return HeavyWeights(RMAT(1<<17, 16<<17, true, 2017), 2018) }},
		goldenCase{name: "rmat16", large: true,
			build: func() *graph.CSR { return RMAT(1<<16, 16<<16, true, 2017) }},
		goldenCase{name: "setcover",
			build: func() *graph.CSR { return SetCover(1<<12, 1<<15, 4, 2026).Graph }},
	)
	return cs
}

// goldenHashes were recorded from the sort-based FromEdges and the
// sequential RMAT sampler that the counting-sort build and the
// position-addressed sampler replaced: every generated graph must stay
// byte-identical, at every GOMAXPROCS.
var goldenHashes = map[string]uint64{
	"chung-lu-sym/n0/m0":              0xe604813a2490280c,
	"chung-lu-sym/n1/m4":              0x4dfa4bffd1f795ec,
	"chung-lu-sym/n1000/m16000":       0x6e1942a5fa051f34,
	"chung-lu-sym/n17/m40":            0x8da8de8d058e72d2,
	"chung-lu-sym/n2/m1":              0xe4418c37567185d2,
	"chung-lu-sym/n3/m48":             0x9a70d33841f0ab9c,
	"chung-lu-sym/n5/m80":             0x4c5ecb60a9c979a0,
	"chung-lu/n0/m0":                  0xe604823a249029bf,
	"chung-lu/n1/m4":                  0x4dfa4cffd1f7979f,
	"chung-lu/n1000/m16000":           0x24c21582ef6ef916,
	"chung-lu/n17/m40":                0x3218e6e05ff7f284,
	"chung-lu/n2/m1":                  0xc793f93df0e2482c,
	"chung-lu/n3/m48":                 0x9a70d43841f0ad4f,
	"chung-lu/n5/m80":                 0x86709d0af012efaa,
	"complete/n0/m0":                  0xe604813a2490280c,
	"complete/n1/m4":                  0x4dfa4bffd1f795ec,
	"complete/n1000/m16000":           0x54db6b3af848499c,
	"complete/n17/m40":                0xc569c49696607c7c,
	"complete/n2/m1":                  0xe4418c37567185d2,
	"complete/n3/m48":                 0x9a70d33841f0ab9c,
	"complete/n5/m80":                 0x4c5ecb60a9c979a0,
	"cycle/n0/m0":                     0xe604813a2490280c,
	"cycle/n1/m4":                     0x4dfa4bffd1f795ec,
	"cycle/n1000/m16000":              0x9e278239e0d7cf7b,
	"cycle/n17/m40":                   0xfb22d95a020569d2,
	"cycle/n2/m1":                     0xe4418c37567185d2,
	"cycle/n3/m48":                    0x9a70d33841f0ab9c,
	"cycle/n5/m80":                    0xffa1fb45830602d2,
	"erdos-renyi-sym/n0/m0":           0xe604813a2490280c,
	"erdos-renyi-sym/n1/m4":           0x4dfa4bffd1f795ec,
	"erdos-renyi-sym/n1000/m16000":    0xc4bc6f0f51ee7b22,
	"erdos-renyi-sym/n17/m40":         0x63bbc03cee15636e,
	"erdos-renyi-sym/n2/m1":           0xd4657e55662f7fcc,
	"erdos-renyi-sym/n3/m48":          0x9a70d33841f0ab9c,
	"erdos-renyi-sym/n5/m80":          0x4c5ecb60a9c979a0,
	"erdos-renyi/n0/m0":               0xe604823a249029bf,
	"erdos-renyi/n1/m4":               0x4dfa4cffd1f7979f,
	"erdos-renyi/n1000/m16000":        0xb8cd176d1e47d69f,
	"erdos-renyi/n17/m40":             0xefd09770ead1a07c,
	"erdos-renyi/n2/m1":               0xd4657f55662f817f,
	"erdos-renyi/n3/m48":              0x9a70d43841f0ad4f,
	"erdos-renyi/n5/m80":              0x08ddad962b034860,
	"grid/n0/m0":                      0xe604813a2490280c,
	"grid/n1/m4":                      0x4dfa4bffd1f795ec,
	"grid/n1000/m16000":               0x676be212a961777b,
	"grid/n17/m40":                    0x65f9d1b943375dc4,
	"grid/n2/m1":                      0xe4418c37567185d2,
	"grid/n3/m48":                     0xc68d133e1d4373f0,
	"grid/n5/m80":                     0xd47892831d4fe664,
	"grid512/log":                     0xb2887a8039d58a94,
	"path/n0/m0":                      0xe604813a2490280c,
	"path/n1/m4":                      0x4dfa4bffd1f795ec,
	"path/n1000/m16000":               0xb7cc7e9d845c8381,
	"path/n17/m40":                    0x9f4c6f7751a24f9c,
	"path/n2/m1":                      0xe4418c37567185d2,
	"path/n3/m48":                     0xc68d133e1d4373f0,
	"path/n5/m80":                     0x89df7c90407671d8,
	"random-regular-sym/n0/m0":        0xe604813a2490280c,
	"random-regular-sym/n1/m4":        0x4dfa4bffd1f795ec,
	"random-regular-sym/n1000/m16000": 0xb3684774a3650d29,
	"random-regular-sym/n17/m40":      0x1c08d23785eec852,
	"random-regular-sym/n2/m1":        0xd4657e55662f7fcc,
	"random-regular-sym/n3/m48":       0x9a70d33841f0ab9c,
	"random-regular-sym/n5/m80":       0x4c5ecb60a9c979a0,
	"rmat-sym/n0/m0":                  0xe604813a2490280c,
	"rmat-sym/n1/m4":                  0x4dfa4bffd1f795ec,
	"rmat-sym/n1000/m16000":           0x531e45a1987bd351,
	"rmat-sym/n17/m40":                0x8ec721883a6512f8,
	"rmat-sym/n2/m1":                  0xe4418c37567185d2,
	"rmat-sym/n3/m48":                 0x9a70d33841f0ab9c,
	"rmat-sym/n5/m80":                 0x602fd88e9fc07556,
	"rmat/n0/m0":                      0xe604823a249029bf,
	"rmat/n1/m4":                      0x4dfa4cffd1f7979f,
	"rmat/n1000/m0":                   0x984919091762ab0c,
	"rmat/n1000/m16000":               0xd24112ac0bd40831,
	"rmat/n1000/sym=false":            0xd24112ac0bd40831,
	"rmat/n1000/sym=true":             0x531e45a1987bd351,
	"rmat/n17/m40":                    0x0f3712bd0fd9bee8,
	"rmat/n2/m1":                      0xc793f93df0e2482c,
	"rmat/n3/m48":                     0x9a70d43841f0ad4f,
	"rmat/n3/sym=false":               0x9a70d43841f0ad4f,
	"rmat/n3/sym=true":                0x9a70d33841f0ab9c,
	"rmat/n4097/sym=false":            0x287818f3b7051fcc,
	"rmat/n4097/sym=true":             0xc1e5c805ed76fbfe,
	"rmat/n5/m80":                     0x5e327390326771dd,
	"rmat/n5/sym=false":               0x5e327390326771dd,
	"rmat/n5/sym=true":                0x602fd88e9fc07556,
	"rmat16":                          0x69690505752a38b5,
	"rmat17":                          0x68fffb87061b814e,
	"rmat17/heavy":                    0xeb0094d07a3a9dfa,
	"setcover":                        0xcc6b73bef83e067d,
	"star/n0/m0":                      0xe604813a2490280c,
	"star/n1/m4":                      0x4dfa4bffd1f795ec,
	"star/n1000/m16000":               0x45e9c045c55431e8,
	"star/n17/m40":                    0xed6770fc0e58531c,
	"star/n2/m1":                      0xe4418c37567185d2,
	"star/n3/m48":                     0x57a9d14e1ca7a7a6,
	"star/n5/m80":                     0x1011c4a63e9a72f8,
}

func TestGoldenGraphs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range goldenCases() {
		if c.large && testing.Short() {
			continue
		}
		for _, p := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(p)
			got := csrHash(c.build())
			if want, ok := goldenHashes[c.name]; !ok || got != want {
				t.Errorf("%s at GOMAXPROCS=%d: hash %#016x, want %#016x", c.name, p, got, want)
			}
		}
	}
}
