package core

import (
	"sync"
	"sync/atomic"

	"medrelax/internal/eks"
)

// weightedLRU is a bounded, sharded LRU keyed by concept. Every entry carries
// a weight in the cache's own unit — 1 for a subsumer vector, bytes for a
// query concept's geometry — and a shard evicts from its cold end while what
// it holds outweighs its budget; an entry heavier than a whole shard's budget
// is not admitted, so the bound holds for every input. Shards keep lock
// contention low under concurrent relaxation, and the bound keeps memory flat
// no matter how many distinct concepts a serving process sees.
//
// Values are immutable once put, so hits are shared between goroutines
// without copying.
type weightedLRU[V any] struct {
	shardBudget int64
	shards      [lruShards]lruShard[V]
	evictions   atomic.Uint64
}

const (
	// lruShards spreads concepts over independently locked shards.
	lruShardBits = 4
	lruShards    = 1 << lruShardBits
	// subsumerShardCap bounds each shard's vector count, ~4k vectors in
	// total — enough to hold every flagged concept of the paper-scale
	// worlds while staying bounded on larger ones.
	subsumerShardCap = 256
)

func newWeightedLRU[V any](budget int64) *weightedLRU[V] {
	return &weightedLRU[V]{shardBudget: budget / lruShards}
}

// shard mixes the id first: concept ids that share their low bits (one
// generator stride, one id block per source) would otherwise share a shard
// and its budget.
func (c *weightedLRU[V]) shard(id eks.ConceptID) *lruShard[V] {
	return &c.shards[(uint64(id)*0x9E3779B97F4A7C15)>>(64-lruShardBits)]
}

// get returns the cached value for id, marking it most recently used.
func (c *weightedLRU[V]) get(id eks.ConceptID) (V, bool) {
	return c.shard(id).get(id)
}

// put inserts or replaces the value for id, evicting the shard's least
// recently used entries while it is over budget.
func (c *weightedLRU[V]) put(id eks.ConceptID, v V, weight int64) {
	if weight > c.shardBudget {
		return
	}
	if n := c.shard(id).put(id, v, weight, c.shardBudget); n > 0 {
		c.evictions.Add(uint64(n))
	}
}

// weight reports the total weight held.
func (c *weightedLRU[V]) weight() int64 {
	var w int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		w += s.weight
		s.mu.Unlock()
	}
	return w
}

// lruShard is one lock's worth of the cache: a map for lookup plus an
// intrusive doubly-linked list in recency order (head = most recent).
type lruShard[V any] struct {
	mu         sync.Mutex
	m          map[eks.ConceptID]*lruEntry[V]
	head, tail *lruEntry[V]
	weight     int64
}

type lruEntry[V any] struct {
	key        eks.ConceptID
	val        V
	weight     int64
	prev, next *lruEntry[V]
}

func (s *lruShard[V]) get(id eks.ConceptID) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[id]
	if !ok {
		var zero V
		return zero, false
	}
	s.moveToFront(e)
	return e.val, true
}

func (s *lruShard[V]) put(id eks.ConceptID, v V, weight, budget int64) (evicted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[id]; ok {
		s.weight += weight - e.weight
		e.val, e.weight = v, weight
		s.moveToFront(e)
	} else {
		if s.m == nil {
			s.m = make(map[eks.ConceptID]*lruEntry[V])
		}
		e := &lruEntry[V]{key: id, val: v, weight: weight}
		s.m[id] = e
		s.pushFront(e)
		s.weight += weight
	}
	// The entry just put is at the head and fits the budget by itself, so
	// the loop stops before it.
	for s.weight > budget {
		evict := s.tail
		s.unlink(evict)
		delete(s.m, evict.key)
		s.weight -= evict.weight
		evicted++
	}
	return evicted
}

func (s *lruShard[V]) pushFront(e *lruEntry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *lruShard[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *lruShard[V]) moveToFront(e *lruEntry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
