package sssp

import "julienne/internal/graph"

// DijkstraHeap is the classic sequential Dijkstra algorithm with a
// binary heap, playing the role of the DIMACS challenge sequential
// solver in Table 3: the "well-tuned sequential baseline" parallel
// speedups are measured against.
func DijkstraHeap(g graph.Graph, src graph.Vertex) Result {
	checkInput(g, src)
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = int64(inf)
	}
	dist[src] = 0
	res := Result{}
	pq := distHeap{{v: src, d: 0}}
	var buf graph.AdjBuf
	for len(pq) > 0 {
		item := pq.pop()
		if item.d > dist[item.v] {
			continue // stale entry
		}
		nbrs, ws := g.OutAdj(item.v, &buf)
		res.EdgesTraversed += int64(len(nbrs))
		for j, u := range nbrs {
			nd := item.d + int64(ws[j])
			if nd < dist[u] {
				dist[u] = nd
				res.Relaxations++
				pq.push(distItem{v: u, d: nd})
			}
		}
	}
	res.Dist = finalize(dist)
	return res
}

type distItem struct {
	v graph.Vertex
	d int64
}

// distHeap is a binary min-heap on d. Its sift-up and sift-down are
// the standard library heap package's up and down, step for step, so
// ties pop in the same order.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	q := append(*h, it)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if q[j].d >= q[i].d {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *distHeap) pop() distItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].d < q[j].d {
			j = j2
		}
		if q[j].d >= q[i].d {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
