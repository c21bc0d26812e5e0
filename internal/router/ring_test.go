package router

import (
	"fmt"
	"testing"
)

// owner is the replica owning key, "" on an empty ring.
func owner(r *Ring, key string) string {
	if owners := r.Owners(key, 1); len(owners) > 0 {
		return owners[0]
	}
	return ""
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant%d\x1fterm-%d", i%7, i)
	}
	return keys
}

// TestRingPlacementDeterministic pins the property every router instance
// depends on: placement is a function of the replica SET, not the order
// it was configured in, so independent routers agree on ownership.
func TestRingPlacementDeterministic(t *testing.T) {
	a := NewRing(64, []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"})
	b := NewRing(64, []string{"10.0.0.3:8080", "10.0.0.1:8080", "10.0.0.2:8080"})
	for _, key := range testKeys(2000) {
		if oa, ob := owner(a, key), owner(b, key); oa != ob {
			t.Fatalf("key %q: owner %q vs %q from reordered replica lists", key, oa, ob)
		}
	}
	// And stable across repeated queries of one ring.
	for _, key := range testKeys(100) {
		if first, second := owner(a, key), owner(a, key); first != second {
			t.Fatalf("key %q: owner changed between calls: %q then %q", key, first, second)
		}
	}
}

// TestRingMinimalMovementOnAdd is consistent hashing's defining property:
// a ring over one more replica moves only the keys that land on its vnodes —
// every moved key moves TO the newcomer, and the moved fraction is near
// 1/new-N, nowhere near the full reshuffle a modulo scheme would cause.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	r := NewRing(128, []string{"r1:8080", "r2:8080", "r3:8080"})
	added := NewRing(128, []string{"r1:8080", "r2:8080", "r3:8080", "r4:8080"})
	keys := testKeys(20000)
	moved := 0
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = owner(r, k)
	}
	for _, k := range keys {
		after := owner(added, k)
		if after == before[k] {
			continue
		}
		moved++
		if after != "r4:8080" {
			t.Fatalf("key %q moved %q→%q, not to the added replica", k, before[k], after)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("add moved %.1f%% of keys; want near 1/4 (balanced minimal movement)", 100*frac)
	}
}

// TestRingMinimalMovementOnRemove is the mirror property: a ring without
// one replica moves exactly that replica's keys, and everything else stays
// put.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	r := NewRing(128, []string{"r1:8080", "r2:8080", "r3:8080", "r4:8080"})
	removed := NewRing(128, []string{"r1:8080", "r3:8080", "r4:8080"})
	keys := testKeys(20000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = owner(r, k)
	}
	for _, k := range keys {
		after := owner(removed, k)
		if before[k] == "r2:8080" {
			if after == "r2:8080" {
				t.Fatalf("key %q still owned by removed replica", k)
			}
			continue
		}
		if after != before[k] {
			t.Fatalf("key %q moved %q→%q though its owner was not removed", k, before[k], after)
		}
	}
}

// TestRingVNodeDistribution bounds placement skew: with enough virtual
// nodes every replica's share of a large keyspace sits close to fair.
func TestRingVNodeDistribution(t *testing.T) {
	replicas := []string{"r1:8080", "r2:8080", "r3:8080", "r4:8080", "r5:8080"}
	r := NewRing(DefaultVNodes, replicas)
	counts := map[string]int{}
	keys := testKeys(50000)
	for _, k := range keys {
		counts[owner(r, k)]++
	}
	fair := float64(len(keys)) / float64(len(replicas))
	for _, rep := range replicas {
		share := float64(counts[rep]) / fair
		if share < 0.5 || share > 1.6 {
			t.Errorf("replica %s owns %.2fx its fair share (%d keys); vnode balancing is off",
				rep, share, counts[rep])
		}
	}
}

// TestRingOwnersFallbackOrder pins the failover contract: Owners returns
// distinct replicas, the primary first, capped at the replica count, and
// the order itself is deterministic.
func TestRingOwnersFallbackOrder(t *testing.T) {
	replicas := []string{"r1:8080", "r2:8080", "r3:8080"}
	r := NewRing(64, replicas)
	for _, key := range testKeys(500) {
		owners := r.Owners(key, 10)
		if len(owners) != len(replicas) {
			t.Fatalf("key %q: %d owners, want all %d replicas", key, len(owners), len(replicas))
		}
		if owners[0] != owner(r, key) {
			t.Fatalf("key %q: Owners[0]=%q but the owner is %q", key, owners[0], owner(r, key))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate owner %q", key, o)
			}
			seen[o] = true
		}
		again := r.Owners(key, 10)
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatalf("key %q: fallback order changed between calls", key)
			}
		}
	}
	if got := NewRing(64, nil).Owners("anything", 1); got != nil {
		t.Errorf("empty ring owners = %q, want none", got)
	}
}
