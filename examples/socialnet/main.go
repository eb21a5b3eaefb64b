// Socialnet: community-structure analysis of a synthetic social
// network with the k-core decomposition — the workload the paper's
// introduction motivates (coreness as a vertex-importance measure in
// social graphs and fraud detection).
//
// The example builds a power-law graph, computes coreness with the
// work-efficient algorithm, cross-checks it against the sequential
// Batagelj–Zaversnik oracle, and reports the "core spectrum": how many
// vertices survive at each k, and the densest community (the maximum
// core) with its internal edge density.
//
//	go run ./examples/socialnet
package main

import (
	"fmt"
	"log"
	"time"

	"julienne"
)

func main() {
	const n, m = 1 << 15, 1 << 18
	g := julienne.ChungLu(n, m, 2.2, true, 7)
	fmt.Printf("social network: n=%d m=%d maxdeg=%d\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree())

	start := time.Now()
	res := julienne.KCoreFull(g, julienne.BucketOptions{})
	fmt.Printf("work-efficient k-core: %v (%d peeling rounds)\n",
		time.Since(start), res.Rounds)

	// Verify against the sequential oracle — the decomposition is
	// unique, so they must agree exactly.
	oracle := julienne.KCoreBZ(g)
	for v, c := range res.Coreness {
		if oracle[v] != c {
			log.Fatalf("coreness mismatch at vertex %d", v)
		}
	}
	fmt.Println("verified against sequential Batagelj-Zaversnik: exact match")

	// Core spectrum: survivors at each k (cumulative from above).
	kmax := uint32(0)
	for _, c := range res.Coreness {
		if c > kmax {
			kmax = c
		}
	}
	surv := make([]int, kmax+1)
	for _, c := range res.Coreness {
		surv[c]++
	}
	cum := 0
	fmt.Println("core spectrum (k: vertices with coreness >= k):")
	for k := int(kmax); k >= 0; k-- {
		cum += surv[k]
		if k == int(kmax) || k == int(kmax)/2 || k == 2 || k == 0 {
			fmt.Printf("  k=%-4d %d vertices\n", k, cum)
		}
	}

	// The maximum core: the densest community. Count its internal
	// edges to report density.
	inMax := make([]bool, g.NumVertices())
	size := 0
	for v, c := range res.Coreness {
		if c == kmax {
			inMax[v] = true
			size++
		}
	}
	var internal int64
	for v := 0; v < g.NumVertices(); v++ {
		if !inMax[v] {
			continue
		}
		g.OutNeighbors(julienne.Vertex(v), func(u julienne.Vertex, w julienne.Weight) bool {
			if inMax[u] {
				internal++
			}
			return true
		})
	}
	internal /= 2 // undirected edges counted twice
	possible := int64(size) * int64(size-1) / 2
	density := 0.0
	if possible > 0 {
		density = float64(internal) / float64(possible)
	}
	fmt.Printf("max core (k=%d): %d vertices, %d internal edges, density %.3f\n",
		kmax, size, internal, density)
}
