package serving

import (
	"container/list"
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"medrelax/internal/server"
)

// CacheStatus says how the serving layer answered one relax request.
type CacheStatus int

const (
	// CacheMiss: the request opened a flight and computed it.
	CacheMiss CacheStatus = iota
	// CacheHit: served from a live entry.
	CacheHit
	// CacheCollapsed: an identical request was already computing; this one
	// joined its flight instead of recomputing.
	CacheCollapsed
	// CacheStale: the computation failed, but an expired entry within the
	// stale window was served instead — degraded mode, not an error.
	CacheStale
	// CacheBypass: the request asked for Request.NoStore and skipped the
	// cache, read and write.
	CacheBypass
)

// cacheStatusNames name each CacheStatus on trace tags.
var cacheStatusNames = [...]string{CacheMiss: "miss", CacheHit: "hit", CacheCollapsed: "collapsed", CacheStale: "stale", CacheBypass: "bypass"}

// cacheShards is how many locks the cache spreads its entries over.
const cacheShards = 16

// Cache is a sharded LRU over relaxation results with TTL expiry and
// singleflight collapse of concurrent misses. Query-expansion traffic is
// dominated by repeated head terms, so the same handful of keys is hit
// from many goroutines at once: sharding keeps lock hold times short, and
// the per-key flight ensures a cold head term is computed once, not once
// per concurrent requester.
//
// Its protocol is one pair: open probes a key and, short of a live entry,
// joins or opens its flight; complete ends a flight its opener computed.
type Cache struct {
	shards []cacheShard
	ttl    time.Duration
	// staleFor is the bounded stale-on-error window: an entry that has
	// expired less than staleFor ago is kept as a fallback and served —
	// clearly counted as stale — when recomputation fails. 0 disables
	// degraded serving; entries older than expiry+staleFor are gone for
	// good.
	staleFor time.Duration
	// gen is the purge epoch: computations started before a Purge must
	// not insert their (old-backend) results afterwards.
	gen atomic.Uint64

	evictions atomic.Uint64
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight
}

type cacheEntry struct {
	key     string
	results []server.RelaxResult
	expires int64 // unix nanos; 0 = no TTL
}

// flight is one computation in progress that other requests can join. It
// keeps the purge epoch it opened under and the expired-but-within-window
// entry found then, so every caller of the flight degrades to the same stale
// answer if the computation fails.
type flight struct {
	key      string
	epoch    uint64
	fallback *cacheEntry // nil: no stale entry to fall back to

	done chan struct{}
	// Set before done closes: the one answer every caller of the flight
	// gets, and whether it is the stale fallback.
	resp  server.Response
	stale bool
}

// NewCache builds a cache holding up to capacity entries (capacity <= 0
// returns nil: caching disabled). ttl <= 0 means entries only leave by LRU
// pressure or purge; staleFor is the stale-on-error window (0 disables it).
func NewCache(capacity int, ttl, staleFor time.Duration) *Cache {
	if capacity <= 0 {
		return nil
	}
	shards := cacheShards
	if shards > capacity {
		shards = 1
	}
	c := &Cache{shards: make([]cacheShard, shards), ttl: ttl, staleFor: max(staleFor, 0)}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:     per,
			lru:     list.New(),
			entries: map[string]*list.Element{},
			flights: map[string]*flight{},
		}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%uint32(len(c.shards))]
}

// open probes key. A live entry is a CacheHit and returns its results.
// Otherwise the key's flight is returned: one already in progress, joined
// (CacheCollapsed), or one this call opens (CacheMiss) and must complete.
// An entry expired less than the stale window ago stays in place as the
// opened flight's fallback.
func (c *Cache) open(key string) ([]server.RelaxResult, *flight, CacheStatus) {
	sh := c.shard(key)
	now := time.Now().UnixNano()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var fallback *cacheEntry
	if el, ok := sh.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		switch {
		case ent.expires == 0 || now < ent.expires:
			sh.lru.MoveToFront(el)
			return ent.results, nil, CacheHit
		case now < ent.expires+int64(c.staleFor):
			fallback = ent
		default:
			sh.lru.Remove(el)
			delete(sh.entries, key)
		}
	}
	if fl, ok := sh.flights[key]; ok {
		return nil, fl, CacheCollapsed
	}
	fl := &flight{key: key, epoch: c.gen.Load(), fallback: fallback, done: make(chan struct{})}
	sh.flights[key] = fl
	return nil, fl, CacheMiss
}

// complete ends a flight open handed its caller to compute, with the
// backend's answer. A success is stored unless a purge happened since the
// flight opened — a result computed against a swapped-out bundle must not
// outlive the swap — and errors are never stored; a failure falls back to
// the flight's stale entry when it has one. It releases the flight's joiners
// and returns the answer they get.
func (c *Cache) complete(fl *flight, resp server.Response) server.Response {
	fl.resp = server.Response{Results: resp.Results, Err: resp.Err}
	if resp.Err != nil && fl.fallback != nil {
		fl.resp, fl.stale = server.Response{Results: fl.fallback.results}, true
	}
	sh := c.shard(fl.key)
	sh.mu.Lock()
	delete(sh.flights, fl.key)
	if resp.Err == nil && c.gen.Load() == fl.epoch {
		if el, ok := sh.entries[fl.key]; ok {
			// Replace the stale fallback open left in place.
			sh.lru.Remove(el)
		}
		ent := &cacheEntry{key: fl.key, results: resp.Results}
		if c.ttl > 0 {
			ent.expires = time.Now().Add(c.ttl).UnixNano()
		}
		sh.entries[fl.key] = sh.lru.PushFront(ent)
		for sh.lru.Len() > sh.cap {
			old := sh.lru.Back()
			sh.lru.Remove(old)
			delete(sh.entries, old.Value.(*cacheEntry).key)
			c.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
	close(fl.done)
	return fl.resp
}

// wait blocks until the flight completes or ctx ends, whichever is first; a
// flight already complete answers even under an ended ctx.
func (fl *flight) wait(ctx context.Context) error {
	select {
	case <-fl.done:
		return nil
	default:
	}
	select {
	case <-fl.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Purge empties every shard and advances the epoch so in-progress
// computations do not re-populate the cache with pre-purge results.
// In-progress flights are left to finish — their waiters get a coherent
// (old) answer — but their results are not stored.
func (c *Cache) Purge() {
	c.gen.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.lru.Init()
		clear(sh.entries)
		sh.mu.Unlock()
	}
}

// Len is the current number of cached entries across shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Evictions is how many entries LRU pressure has pushed out.
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }
