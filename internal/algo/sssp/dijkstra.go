package sssp

import (
	"container/heap"

	"julienne/internal/graph"
)

// DijkstraHeap is the classic sequential Dijkstra algorithm with a
// binary heap, playing the role of the DIMACS challenge sequential
// solver in Table 3: the "well-tuned sequential baseline" parallel
// speedups are measured against.
func DijkstraHeap(g graph.Graph, src graph.Vertex) Result {
	checkInput(g, src)
	n := g.NumVertices()
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	res := Result{}
	pq := &distHeap{{v: src, d: 0}}
	var buf graph.AdjBuf
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.v] {
			continue // stale entry
		}
		nbrs, ws := g.OutAdj(item.v, &buf)
		res.EdgesTraversed += int64(len(nbrs))
		for j, u := range nbrs {
			nd := item.d + uint64(ws[j])
			if nd < dist[u] {
				dist[u] = nd
				res.Relaxations++
				heap.Push(pq, distItem{v: u, d: nd})
			}
		}
	}
	res.Dist = finalize(dist)
	return res
}

type distItem struct {
	v graph.Vertex
	d uint64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
