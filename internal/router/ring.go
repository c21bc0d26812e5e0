// Package router is the distributed serving tier: a shard router that
// fronts N kbserver replicas. Placement is a consistent-hash ring over
// replica addresses (virtual nodes for balance, deterministic rebalancing
// when the set changes); /relax proxies to the owning replica, and
// /relax/batch scatter-gathers a batch across shards and merges positional
// outcomes byte-identical to a single-replica run. The router never looks
// inside a bundle, it only decides which replica owns a routing key.
package router

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// ringPoint is one virtual node: a position on the hash circle owned by a
// replica.
type ringPoint struct {
	hash    uint64
	replica string
}

// Ring is a consistent-hash ring with virtual nodes. Placement depends
// only on the replica set and vnode count — never on insertion order — so
// every router instance computes identical ownership, and adding or
// removing one replica moves only the keys that land on its vnodes
// (~1/N of the keyspace), not a full reshuffle.
type Ring struct {
	vnodes int

	mu       sync.RWMutex
	points   []ringPoint // sorted by hash
	replicas []string    // sorted, deduplicated
}

// DefaultVNodes balances placement to within a few percent across
// realistic replica counts without making ring rebuilds noticeable.
const DefaultVNodes = 128

// NewRing builds a ring with the given virtual nodes per replica
// (<= 0 uses DefaultVNodes) over an initial replica set.
func NewRing(vnodes int, replicas []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes}
	r.Set(replicas)
	return r
}

// keyHash is FNV-1a 64 run through a splitmix64-style finisher. FNV alone
// clusters on short, similar strings (vnode labels differ by a digit or
// two), which shows up directly as ownership skew; the finisher's
// avalanche spreads those neighbors across the whole circle.
func keyHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Set replaces the replica set, rebuilding the ring deterministically.
func (r *Ring) Set(replicas []string) {
	seen := make(map[string]bool, len(replicas))
	names := make([]string, 0, len(replicas))
	for _, rep := range replicas {
		if rep == "" || seen[rep] {
			continue
		}
		seen[rep] = true
		names = append(names, rep)
	}
	sort.Strings(names)
	points := make([]ringPoint, 0, len(names)*r.vnodes)
	for _, rep := range names {
		for i := 0; i < r.vnodes; i++ {
			points = append(points, ringPoint{keyHash(rep + "#" + strconv.Itoa(i)), rep})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Hash ties (vanishingly rare) break by name so placement stays
		// deterministic across instances.
		return points[i].replica < points[j].replica
	})
	r.mu.Lock()
	r.points, r.replicas = points, names
	r.mu.Unlock()
}

// Add inserts one replica; a no-op if already present.
func (r *Ring) Add(replica string) {
	r.mu.RLock()
	cur := append([]string(nil), r.replicas...)
	r.mu.RUnlock()
	r.Set(append(cur, replica))
}

// Remove drops one replica; a no-op if absent.
func (r *Ring) Remove(replica string) {
	r.mu.RLock()
	cur := make([]string, 0, len(r.replicas))
	for _, rep := range r.replicas {
		if rep != replica {
			cur = append(cur, rep)
		}
	}
	r.mu.RUnlock()
	r.Set(cur)
}

// Replicas returns the current replica set, sorted.
func (r *Ring) Replicas() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.replicas...)
}

// Owner returns the replica owning key: the first vnode clockwise from the
// key's hash. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct replicas in fallback order: the owner
// first, then each further replica in the order its first vnode appears
// clockwise. Every router instance computes the same order, so failover
// placement is as deterministic as primary placement.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.replica] {
			continue
		}
		seen[p.replica] = true
		owners = append(owners, p.replica)
	}
	return owners
}
