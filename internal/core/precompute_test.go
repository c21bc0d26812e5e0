package core

import (
	"testing"

	"medrelax/internal/ontology"
)

func precomputeWorld(t *testing.T) (*Ingestion, *Similarity, *PrecomputedSimilarity) {
	t.Helper()
	ing := ingestWorld(t, IngestOptions{})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	store := Precompute(ing, sim, PrecomputeOptions{
		Radius: 4,
		Contexts: []ontology.Context{
			{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"},
			{Domain: "Risk", Relationship: "hasFinding", Range: "Finding"},
		},
	})
	return ing, sim, store
}

func TestPrecomputeCoverage(t *testing.T) {
	ing, _, store := precomputeWorld(t)
	if store.Queries() != ing.FlaggedCount() {
		t.Errorf("precomputed %d queries, want %d flagged", store.Queries(), ing.FlaggedCount())
	}
	// One entry per (query, context) including the context-free slot.
	if store.Entries() != 3*store.Queries() {
		t.Errorf("entries = %d, want %d", store.Entries(), 3*store.Queries())
	}
}

func TestPrecomputeMatchesLive(t *testing.T) {
	ing, sim, store := precomputeWorld(t)
	live := NewRelaxer(ing, sim, exactMapper{ing.Graph}, RelaxOptions{Radius: 4})
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	for _, q := range ing.FlaggedIDs() {
		cached, ok := store.Lookup(q, ctx)
		if !ok {
			t.Fatalf("no cache entry for %d", q)
		}
		liveRanked := live.RankedCandidates(q, ctx)
		if len(cached) != len(liveRanked) {
			t.Fatalf("query %d: %d cached vs %d live", q, len(cached), len(liveRanked))
		}
		for i := range cached {
			if cached[i].Concept != liveRanked[i].Concept || cached[i].Score != liveRanked[i].Score {
				t.Fatalf("query %d rank %d: cached %+v vs live %+v", q, i, cached[i], liveRanked[i])
			}
		}
	}
}

func TestPrecomputeLookupMisses(t *testing.T) {
	_, _, store := precomputeWorld(t)
	if _, ok := store.Lookup(999999, nil); ok {
		t.Error("unknown concept must miss")
	}
	ctx := &ontology.Context{Domain: "Drug", Relationship: "treat", Range: "Indication"}
	for q := range store.entries {
		if _, ok := store.Lookup(q, ctx); ok {
			t.Error("unprecomputed context must miss")
		}
		break
	}
}

func TestPrecomputeMaxPerQuery(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	store := Precompute(ing, sim, PrecomputeOptions{Radius: 6, MaxPerQuery: 1})
	for _, q := range ing.FlaggedIDs() {
		ranked, ok := store.Lookup(q, nil)
		if !ok {
			t.Fatalf("no entry for %d", q)
		}
		if len(ranked) > 1 {
			t.Fatalf("entry for %d exceeds cap: %d", q, len(ranked))
		}
	}
}

func TestCachedRelaxer(t *testing.T) {
	ing, sim, store := precomputeWorld(t)
	live := NewRelaxer(ing, sim, exactMapper{ing.Graph}, RelaxOptions{Radius: 4})
	cached := NewCachedRelaxer(live, store)
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}

	// Flagged query: served from the store, identical to live.
	a, err := cached.RelaxTerm("headache", ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := live.RelaxTerm("headache", ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("cached %d vs live %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Concept != b[i].Concept {
			t.Fatalf("rank %d differs", i)
		}
	}
	// Unflagged query concept (pertussis, 11): cache misses, live fallback
	// still answers.
	res, err := cached.RelaxTerm("pertussis", ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("fallback produced nothing")
	}
	// Unmappable term: error surfaces.
	if _, err := cached.RelaxTerm("zzqx", ctx, 0); err == nil {
		t.Error("unmappable term must fail")
	}
	// k semantics preserved.
	limited := cached.RelaxConcept(5, ctx, 1)
	if len(limited) == 0 {
		t.Error("k-limited lookup empty")
	}
}
