package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"julienne/internal/graph"
	"julienne/internal/obs"
)

// ssspKey identifies one distance computation: identical concurrent
// requests coalesce onto a single run, and completed runs are cached.
// Fusion participates in the key because fused and unfused runs report
// different round counts (the distances agree).
type ssspKey struct {
	src    graph.Vertex
	delta  int64
	wbfs   bool
	fusion bool
}

// ssspVal is one computed (or failed) distance vector. Dist is shared
// read-only between the leader, every coalesced follower, and the
// cache — handlers must never mutate it.
type ssspVal struct {
	dist        []int64
	rounds      int64
	relaxations int64
	err         error
}

// errFlightAbandoned is what a flight's followers get when its leader
// panicked out of the computation: there is no value to share, and the
// panic itself belongs to the leader's request.
var errFlightAbandoned = errors.New("serve: shared computation failed")

// flight is one in-progress computation followers wait on.
type flight[V any] struct {
	done   chan struct{}
	val    V
	landed bool // false once done is closed: the leader panicked
}

// flightGroup is the package's one single-flight: concurrent do calls
// for the same key share one run of compute.
type flightGroup[K comparable, V any] struct {
	mu       sync.Mutex
	inflight map[K]*flight[V]
}

// do returns the value for key, running compute unless cached answers
// first or another caller's compute for key is already in flight, in
// which case it waits for that one (shared reports this) until ctx is
// done. cached, and keep with the finished value, run under the
// group's lock, so a caller arriving as a flight lands sees either the
// flight or what keep stored, never neither. The flight is taken down
// in a defer: a compute that panics leaves nothing behind, and its
// followers return errFlightAbandoned.
func (g *flightGroup[K, V]) do(ctx context.Context, key K, cached func() (V, bool),
	compute func() V, keep func(V)) (val V, shared bool, err error) {
	g.mu.Lock()
	if v, ok := cached(); ok {
		g.mu.Unlock()
		return v, false, nil
	}
	if f, ok := g.inflight[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			if !f.landed {
				return val, true, errFlightAbandoned
			}
			return f.val, true, nil
		case <-ctx.Done():
			return val, true, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	if g.inflight == nil {
		g.inflight = make(map[K]*flight[V])
	}
	g.inflight[key] = f
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.inflight, key)
		if f.landed {
			keep(f.val)
		}
		g.mu.Unlock()
		close(f.done)
	}()
	f.val = compute()
	f.landed = true
	return f.val, false, nil
}

// coalescer deduplicates concurrent identical SSSP queries and keeps
// an LRU of recent successful results, so a hot source costs one
// computation no matter how many clients ask.
type coalescer struct {
	flightGroup[ssspKey, *ssspVal]
	lru *lruCache
	rec *obs.Recorder
}

func newCoalescer(cacheSize int, rec *obs.Recorder) *coalescer {
	return &coalescer{lru: newLRU(cacheSize), rec: rec}
}

// do returns the result for key, computing it at most once across
// concurrent callers. The bool results report whether the value came
// from the cache and whether this caller coalesced onto another
// caller's run. A non-nil error means this caller has no value: ctx
// expired while it waited for another caller's computation, or that
// computation panicked. Errors from the computation itself travel
// inside ssspVal.err so every waiter sees them.
func (c *coalescer) do(ctx context.Context, key ssspKey,
	compute func() *ssspVal) (val *ssspVal, cached, coalesced bool, err error) {
	val, coalesced, err = c.flightGroup.do(ctx, key,
		func() (*ssspVal, bool) {
			v, ok := c.lru.get(key)
			cached = ok
			if ok {
				c.rec.Inc(obs.CtrServeCacheHits)
			} else {
				c.rec.Inc(obs.CtrServeCacheMisses)
			}
			return v, ok
		},
		compute,
		func(v *ssspVal) {
			if v.err == nil {
				c.lru.put(key, v)
			}
		})
	if coalesced {
		c.rec.Inc(obs.CtrServeCoalesced)
	}
	return val, cached, coalesced, err
}

// lruCache is a size-bounded map with least-recently-used eviction
// (stdlib container/list; no dependencies). Callers synchronize.
type lruCache struct {
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	items map[ssspKey]*list.Element
}

type lruEntry struct {
	key ssspKey
	val *ssspVal
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, order: list.New(), items: make(map[ssspKey]*list.Element)}
}

func (l *lruCache) get(key ssspKey) (*ssspVal, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (l *lruCache) put(key ssspKey, val *ssspVal) {
	if l.cap <= 0 {
		return
	}
	if el, ok := l.items[key]; ok {
		el.Value.(*lruEntry).val = val
		l.order.MoveToFront(el)
		return
	}
	l.items[key] = l.order.PushFront(&lruEntry{key: key, val: val})
	if l.order.Len() > l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry).key)
	}
}
