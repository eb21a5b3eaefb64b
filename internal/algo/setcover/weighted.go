package setcover

import (
	"container/heap"
	"math"

	"julienne/internal/bucket"
	"julienne/internal/graph"
)

// Weighted set cover (§4.3: "we now describe our algorithm for
// unweighted set cover, and note that it can be easily modified for
// the weighted case as well"). Sets carry positive costs; the greedy
// quantity is the *normalized cost* — uncovered elements per unit cost
// — and sets are bucketed by ⌊log_{1+ε}(D(s)/c(s))⌋, processed from
// most to least valuable. A set joins the cover when the elements it
// wins per unit cost clear the bucket's threshold.
//
// The Blelloch et al. preprocessing that clamps the cost ratio to keep
// the *number of buckets* logarithmic (their Lemma 4.2) is not needed
// here: the open-range optimization (§3.3) already keeps the
// represented bucket range small, so arbitrary positive costs are
// accepted and only the theoretical bucket-count term of Lemma 3.2
// grows with the cost spread.

// WeightedResult extends Result with the total cost of the cover.
type WeightedResult struct {
	Result
	// Cost is the sum of chosen sets' costs.
	Cost float64
}

// valueBucketizer maps a (degree, cost) pair to a bucket id. Bucket
// ids are biased so the smallest representable value (one element per
// maxCost) lands at id 0; higher ids mean more value per cost.
type valueBucketizer struct {
	invLog float64
	bias   int64
}

func newValueBucketizer(eps float64, maxCost float64) valueBucketizer {
	invLog := 1.0 / math.Log1p(eps)
	bias := int64(math.Ceil(math.Log(maxCost)*invLog)) + 1
	if bias < 1 {
		bias = 1
	}
	return valueBucketizer{invLog: invLog, bias: bias}
}

// bucketOf returns the bucket for a live set with d uncovered elements
// and cost c; Nil for exhausted or chosen sets.
func (vb valueBucketizer) bucketOf(d uint32, c float64) bucket.ID {
	if d == 0 || d == inCover {
		return bucket.Nil
	}
	b := vb.bias + int64(math.Floor(math.Log(float64(d)/c)*vb.invLog))
	if b < 0 {
		b = 0
	}
	return bucket.ID(b)
}

// threshold returns (1+ε)^(b-bias), the value floor of bucket b.
func (vb valueBucketizer) threshold(eps float64, b int64) float64 {
	return math.Pow(1+eps, float64(b-vb.bias))
}

// ApproxWeighted runs the bucketed weighted set-cover approximation.
// costs[s] must be positive for every set. The cover guarantee matches
// the unweighted algorithm's, with cost in place of cardinality.
func ApproxWeighted(g *graph.CSR, numSets int, costs []float64, opt Options) WeightedResult {
	return ApproxWeightedOn(g.Clone(), numSets, costs, opt)
}

// ApproxWeightedOn is ApproxWeighted over any packable graph; the
// graph is consumed.
func ApproxWeightedOn(work graph.Packer, numSets int, costs []float64, opt Options) WeightedResult {
	if len(costs) != numSets {
		panic("setcover: costs slice does not match numSets")
	}
	maxCost := 1.0
	for _, c := range costs {
		if c <= 0 {
			panic("setcover: costs must be positive")
		}
		if c > maxCost {
			maxCost = c
		}
	}
	eps := opt.epsilon()
	vb := newValueBucketizer(eps, maxCost)
	// A set's value is its uncovered elements per unit cost.
	res := WeightedResult{Result: approx(work, numSets, opt,
		func(s, d uint32) bucket.ID { return vb.bucketOf(d, costs[s]) },
		func(s graph.Vertex, count uint32) float64 { return float64(count) / costs[s] },
		func(b int64) float64 { return vb.threshold(eps, b) })}
	for s, in := range res.InCover {
		if in {
			res.Cost += costs[s]
		}
	}
	return res
}

// GreedyWeighted is the exact sequential weighted greedy algorithm:
// repeatedly choose the set maximizing uncovered-elements per unit
// cost (H_n approximation for weighted set cover). Lazy heap with
// stale-entry re-push.
func GreedyWeighted(g graph.Graph, numSets int, costs []float64) WeightedResult {
	if len(costs) != numSets {
		panic("setcover: costs slice does not match numSets")
	}
	n := g.NumVertices()
	d := make([]uint32, numSets)
	covered := make([]bool, n)
	pq := &valueHeap{}
	for s := 0; s < numSets; s++ {
		if costs[s] <= 0 {
			panic("setcover: costs must be positive")
		}
		d[s] = uint32(g.OutDegree(graph.Vertex(s)))
		if d[s] > 0 {
			heap.Push(pq, valueItem{s: uint32(s), value: float64(d[s]) / costs[s], deg: d[s]})
		}
	}
	res := WeightedResult{Result: Result{InCover: make([]bool, numSets)}}
	var outBuf, inBuf graph.AdjBuf // nested reads: one buffer each (see Greedy)
	for pq.Len() > 0 {
		item := heap.Pop(pq).(valueItem)
		s := item.s
		if d[s] == inCover || d[s] == 0 {
			continue
		}
		if d[s] != item.deg {
			// Stale: re-push with the current degree.
			heap.Push(pq, valueItem{s: s, value: float64(d[s]) / costs[s], deg: d[s]})
			continue
		}
		res.InCover[s] = true
		res.CoverSize++
		res.Cost += costs[s]
		elems, _ := g.OutAdj(graph.Vertex(s), &outBuf)
		for _, e := range elems {
			if covered[e] {
				continue
			}
			covered[e] = true
			sets, _ := g.InAdj(e, &inBuf)
			for _, t := range sets {
				if t != s && d[t] > 0 && d[t] != inCover {
					d[t]--
				}
			}
		}
		d[s] = inCover
	}
	return res
}

type valueItem struct {
	s     uint32
	value float64
	deg   uint32
}

type valueHeap []valueItem

func (h valueHeap) Len() int            { return len(h) }
func (h valueHeap) Less(i, j int) bool  { return h[i].value > h[j].value } // max-heap
func (h valueHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *valueHeap) Push(x interface{}) { *h = append(*h, x.(valueItem)) }
func (h *valueHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
