package setcover

import (
	"sync/atomic"

	"julienne/internal/graph"
	"julienne/internal/ligra"
	"julienne/internal/obs"
	"julienne/internal/parallel"
)

// manis is what the variants of the Blelloch et al. algorithm share:
// the instance state and one MaNIS step over a frontier of sets
// (Algorithm 3, lines 25–33). The step's closures and the destinations
// they fill are built once per run, so a step allocates nothing beyond
// what its two plain ligra.EdgeMap calls do.
type manis struct {
	work graph.Packer
	// el[e]: the set currently reserving element e (elmFree if none).
	// covered[e] != 0 marks e covered. d[s]: uncovered elements still
	// covered by s, lazily maintained (inCover marks chosen sets).
	el, covered, d []uint32
	inCover        []bool
	emOpts         ligra.EdgeMapOptions

	degrees ligra.Tagged[uint32]   // activate: the frontier's packed degrees
	active  ligra.Tagged[struct{}] // activate: the sets that clear the threshold
	won     ligra.Tagged[uint32]   // elect: elements each active set won

	elmUncovered func(s, e graph.Vertex) bool
	keepActive   func(s graph.Vertex, deg uint32) (struct{}, bool)
	uncovered    func(e graph.Vertex) bool
	reserve      func(s, e graph.Vertex, w graph.Weight) bool
	wonBy        func(s, e graph.Vertex) bool
	joinCover    func(i int)
	settle       func(s, e graph.Vertex, w graph.Weight) bool
}

// newManis sets up the instance whose sets are vertices [0, numSets) of
// work. isActive reports whether a set with deg uncovered elements
// still clears the current step's threshold, wins whether having won
// that many puts it in the cover; a variant reads the step's thresholds
// from its own loop state.
func newManis(work graph.Packer, numSets int, rec *obs.Recorder,
	isActive, wins func(s graph.Vertex, count uint32) bool) *manis {

	n := work.NumVertices()
	m := &manis{
		work: work, el: make([]uint32, n), covered: make([]uint32, n), d: make([]uint32, n),
		inCover: make([]bool, numSets),
		emOpts:  ligra.EdgeMapOptions{NoDense: true, NoOutput: true, Recorder: rec},
	}
	el, covered, d, inCoverFlags := m.el, m.covered, m.d, m.inCover
	parallel.For(n, parallel.DefaultGrain, func(i int) {
		el[i] = elmFree
		if i < numSets {
			d[i] = uint32(work.OutDegree(graph.Vertex(i)))
		}
	})
	m.elmUncovered = func(_, e graph.Vertex) bool { return covered[e] == 0 }
	m.keepActive = func(s graph.Vertex, deg uint32) (struct{}, bool) {
		d[s] = deg
		return struct{}{}, isActive(s, deg)
	}
	m.uncovered = func(e graph.Vertex) bool { return covered[e] == 0 }
	m.reserve = func(s, e graph.Vertex, _ graph.Weight) bool {
		parallel.WriteMinUint32(&el[e], uint32(s))
		return false
	}
	m.wonBy = func(s, e graph.Vertex) bool { return el[e] == uint32(s) }
	m.joinCover = func(i int) {
		if s := m.won.IDs[i]; wins(s, m.won.Vals[i]) {
			d[s] = inCover
			inCoverFlags[s] = true
		}
	}
	m.settle = func(s, e graph.Vertex, _ graph.Weight) bool {
		// Only e's unique winner passes the check, but losers read
		// el[e] concurrently with the winner's store, so the accesses
		// must be atomic.
		if atomic.LoadUint32(&el[e]) == uint32(s) {
			if d[s] == inCover {
				atomic.StoreUint32(&covered[e], 1)
			} else {
				atomic.StoreUint32(&el[e], elmFree)
			}
		}
		return false
	}
	return m
}

// activate is phase 1 (lines 25–27): pack covered elements out of the
// frontier sets' adjacency lists, update their degrees, and return the
// sets that still clear the step's threshold (valid until the next
// activate).
func (m *manis) activate(frontier ligra.VertexSubset) ligra.VertexSubset {
	degrees := ligra.EdgeMapPack(m.work, frontier, m.elmUncovered, &m.degrees)
	return ligra.TagMapTagged(degrees, m.keepActive, &m.active).Untagged()
}

// elect is phases 2 and 3 (lines 28–33): one MaNIS step. Active sets
// reserve uncovered elements with writeMin on their ids and the ones
// that won enough join the cover; then elements won by chosen sets are
// marked covered and the rest released.
func (m *manis) elect(active ligra.VertexSubset) {
	ligra.EdgeMap(m.work, active, m.uncovered, m.reserve, m.emOpts)
	ligra.EdgeMapFilterCount(m.work, active, m.wonBy, &m.won)
	parallel.For(m.won.Size(), parallel.DefaultGrain, m.joinCover)
	ligra.EdgeMap(m.work, active, nil /* every target */, m.settle, m.emOpts)
}
