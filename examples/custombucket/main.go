// Custombucket: how to write your own bucketing-based algorithm on the
// public bucket interface. The example implements weighted BFS from
// scratch in ~50 lines — the same Algorithm 2 loop the library ships —
// and validates it against the built-in Dijkstra. Use this as the
// template for new bucketed algorithms (priority schedulers, other
// peeling processes, ...).
//
//	go run ./examples/custombucket
package main

import (
	"fmt"
	"log"
	"time"

	"julienne"
)

const inf = int64(1) << 60

// customWBFS is Algorithm 2 with ∆ = 1 written by hand on the public
// interface: distances array + bucket structure + relax loop.
// (Single-threaded for clarity: the library's sssp package shows the
// atomic version; the bucket structure itself is the same.)
func customWBFS(g julienne.Graph, src julienne.Vertex) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0

	// D maps a vertex to its current bucket: its tentative distance
	// (∆ = 1), or NilBucket while unreached.
	d := func(v uint32) julienne.BucketID {
		if dist[v] >= inf {
			return julienne.NilBucket
		}
		return julienne.BucketID(dist[v])
	}
	b := julienne.NewBuckets(n, d, julienne.IncreasingBuckets, julienne.BucketOptions{})

	var ids []uint32
	var dests []julienne.BucketDest
	for {
		cur, frontier := b.NextBucket()
		if cur == julienne.NilBucket {
			break
		}
		ids, dests = ids[:0], dests[:0]
		for _, v := range frontier {
			dv := dist[v]
			g.OutNeighbors(julienne.Vertex(v), func(u julienne.Vertex, w julienne.Weight) bool {
				if nd := dv + int64(w); nd < dist[u] {
					prev := d(uint32(u))
					dist[u] = nd
					if dest := b.GetBucket(prev, julienne.BucketID(nd)); dest != julienne.NoBucketDest {
						ids = append(ids, uint32(u))
						dests = append(dests, dest)
					}
				}
				return true
			})
		}
		b.UpdateBuckets(len(ids), func(j int) (uint32, julienne.BucketDest) {
			return ids[j], dests[j]
		})
	}
	for i := range dist {
		if dist[i] >= inf {
			dist[i] = julienne.UnreachableDist
		}
	}
	return dist
}

func main() {
	g := julienne.LogWeights(julienne.RMAT(1<<14, 1<<17, true, 99), 1)
	fmt.Printf("graph: n=%d m=%d (weights [1, log n))\n", g.NumVertices(), g.NumEdges())

	start := time.Now()
	mine := customWBFS(g, 0)
	fmt.Printf("hand-written bucketed wBFS: %v\n", time.Since(start).Round(time.Microsecond))

	ref := julienne.Dijkstra(g, 0)
	for v := range mine {
		if mine[v] != ref.Dist[v] {
			log.Fatalf("mismatch at %d: %d vs %d", v, mine[v], ref.Dist[v])
		}
	}
	lib := julienne.WBFS(g, 0)
	for v := range mine {
		if mine[v] != lib[v] {
			log.Fatalf("library mismatch at %d", v)
		}
	}
	fmt.Println("distances match Dijkstra and the library wBFS exactly")

	// Peek at the structure's work (the Figure 1 quantities).
	fmt.Println("\nbucket interface recap:")
	fmt.Println("  NewBuckets(n, D, order, opts)  -> structure over identifiers [0,n)")
	fmt.Println("  NextBucket()                   -> (bucket id, live identifiers)")
	fmt.Println("  GetBucket(prev, next)          -> opaque destination (or NoBucketDest)")
	fmt.Println("  UpdateBuckets(k, f)            -> batched moves")
}
