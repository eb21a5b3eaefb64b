package compress

import (
	"math"
	"sort"
	"testing"

	"julienne/internal/graph"
)

// Fuzz targets for the byte-coded adjacency representation: the varint
// primitives, the per-vertex delta codec, and the whole CSR → compressed
// round trip including in-place packing. `go test` runs the seed corpus
// (empty list, single edge, max-degree vertex); `go test
// -fuzz=FuzzDecode ./internal/compress` explores. The codec is in this
// package, so FuzzDecode drives encodeAdjacency directly and decodes
// through OutAdj.

func FuzzVarint(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(127))
	f.Add(uint64(128))
	f.Add(uint64(math.MaxInt64))
	f.Add(uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, x uint64) {
		buf := make([]byte, 10)
		end := putVarint(buf, 0, x)
		if int(end) != varintLen(x) {
			t.Fatalf("putVarint wrote %d bytes, varintLen says %d", end, varintLen(x))
		}
		got, pos := getVarint(buf, 0)
		if got != x || pos != end {
			t.Fatalf("varint round trip: wrote %d (%d bytes), read %d (%d bytes)", x, end, got, pos)
		}
		s := int64(x)
		if back := unzigzag(zigzag(s)); back != s {
			t.Fatalf("zigzag round trip: %d -> %d", s, back)
		}
	})
}

// adjacencyFromBytes derives a deterministic adjacency structure from
// raw fuzz bytes: consecutive byte pairs become (vertex, neighbor)
// entries mod n, and each list is sorted as the encoder requires.
// Duplicates and self-loops are kept — the codec must round-trip them
// (gap 0 and a zero/negative first delta respectively).
func adjacencyFromBytes(raw []byte, n int) [][]graph.Vertex {
	adj := make([][]graph.Vertex, n)
	for i := 0; i+1 < len(raw); i += 2 {
		v := int(raw[i]) % n
		adj[v] = append(adj[v], graph.Vertex(int(raw[i+1])%n))
	}
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
	}
	return adj
}

func FuzzDecode(f *testing.F) {
	f.Add([]byte{}, uint16(1), false)    // empty graph, empty list
	f.Add([]byte{0, 1}, uint16(2), true) // single weighted edge
	maxDeg := make([]byte, 0, 2*200)     // one vertex adjacent to everything
	for u := 0; u < 200; u++ {
		maxDeg = append(maxDeg, 0, byte(u))
	}
	f.Add(maxDeg, uint16(200), false)
	f.Fuzz(func(t *testing.T, raw []byte, n16 uint16, weighted bool) {
		n := int(n16)%512 + 1
		adj := adjacencyFromBytes(raw, n)
		weight := func(v int, i int) graph.Weight {
			return graph.Weight((v + i*7) % 251)
		}
		offs, data, degs := encodeAdjacency(n, weighted,
			func(v graph.Vertex) ([]graph.Vertex, []graph.Weight) {
				nbrs := adj[v]
				if !weighted {
					return nbrs, nil
				}
				wgts := make([]graph.Weight, len(nbrs))
				for i := range wgts {
					wgts[i] = weight(int(v), i)
				}
				return nbrs, wgts
			})
		// Decode through the interface method with one buffer reused
		// across all vertices, so a stale tail left by a longer list
		// would surface in a shorter one.
		c := &Graph{n: n, offs: offs, data: data, degs: degs, weighted: weighted}
		var buf graph.AdjBuf
		for v := 0; v < n; v++ {
			if int(degs[v]) != len(adj[v]) {
				t.Fatalf("vertex %d: encoded degree %d, want %d", v, degs[v], len(adj[v]))
			}
			nbrs, wgts := c.OutAdj(graph.Vertex(v), &buf)
			if len(nbrs) != len(adj[v]) {
				t.Fatalf("vertex %d: decoded %d neighbors, want %d", v, len(nbrs), len(adj[v]))
			}
			if (wgts != nil) != weighted || (weighted && len(wgts) != len(nbrs)) {
				t.Fatalf("vertex %d: %d weights for %d neighbors (weighted=%t)", v, len(wgts), len(nbrs), weighted)
			}
			for i, u := range nbrs {
				if u != adj[v][i] {
					t.Fatalf("vertex %d neighbor %d: decoded %d, want %d", v, i, u, adj[v][i])
				}
				if weighted && wgts[i] != weight(v, i) {
					t.Fatalf("vertex %d neighbor %d: decoded weight %d, want %d", v, i, wgts[i], weight(v, i))
				}
			}
		}
	})
}

func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(1), false)
	f.Add([]byte{0, 1, 1, 0}, uint16(2), true)
	star := make([]byte, 0, 2*64)
	for u := 1; u < 64; u++ {
		star = append(star, 0, byte(u))
	}
	f.Add(star, uint16(64), true)
	f.Fuzz(func(t *testing.T, raw []byte, n16 uint16, weighted bool) {
		n := int(n16)%256 + 1
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			u := graph.Vertex(int(raw[i]) % n)
			v := graph.Vertex(int(raw[i+1]) % n)
			edges = append(edges, graph.Edge{U: u, V: v, W: graph.Weight(int(raw[i]) % 97)})
		}
		opt := graph.BuildOptions{Weighted: weighted, Dedup: true, DropSelfLoops: false}
		g := graph.FromEdges(n, edges, opt)
		c := FromCSR(g)
		if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
			t.Fatalf("sizes: compressed (%d, %d), CSR (%d, %d)",
				c.NumVertices(), c.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		for v := 0; v < n; v++ {
			vv := graph.Vertex(v)
			if c.OutDegree(vv) != g.OutDegree(vv) {
				t.Fatalf("vertex %d: degree %d, want %d", v, c.OutDegree(vv), g.OutDegree(vv))
			}
			want := g.OutEdges(vv)
			wgts := g.OutWeights(vv)
			nbrs, ws := c.OutAdj(vv, nil)
			if len(nbrs) != len(want) {
				t.Fatalf("vertex %d: decoded %d neighbors, want %d", v, len(nbrs), len(want))
			}
			for i, u := range nbrs {
				if u != want[i] {
					t.Fatalf("vertex %d neighbor %d: got %d, want %d", v, i, u, want[i])
				}
				if weighted && ws[i] != wgts[i] {
					t.Fatalf("vertex %d neighbor %d: weight %d, want %d", v, i, ws[i], wgts[i])
				}
			}
		}
		// PackOut must behave exactly like filtering the CSR list.
		packed := c.Clone()
		keep := func(u graph.Vertex) bool { return u%2 == 0 }
		for v := 0; v < n; v++ {
			vv := graph.Vertex(v)
			var want []graph.Vertex
			for _, u := range g.OutEdges(vv) {
				if keep(u) {
					want = append(want, u)
				}
			}
			if got := packed.PackOut(vv, keep); got != len(want) {
				t.Fatalf("vertex %d: PackOut kept %d, want %d", v, got, len(want))
			}
			nbrs, _ := packed.OutAdj(vv, nil)
			for i, u := range nbrs {
				if u != want[i] {
					t.Fatalf("vertex %d packed neighbor %d: got %d, want %d", v, i, u, want[i])
				}
			}
		}
	})
}
