package medrelax

import (
	"sync"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eval"
)

// The accelerated ingestion is built once, like sharedSystem, and only read.
var (
	accelIngOnce sync.Once
	accelIng     *core.Ingestion
)

// sharedAccelerated is the shared system's ingestion carrying the full-head
// materialized store, with unlimited per-entry candidates, and the candidate
// index out to MaxRadius, so every golden query (including the k=0
// full-ranked-list form) is servable from either. Both are attached to a
// shallow copy: the shared system's ingestion stays untouched.
func sharedAccelerated(tb testing.TB) *core.Ingestion {
	tb.Helper()
	sys := sharedSystem(tb)
	accelIngOnce.Do(func() {
		ing, ropts := sys.Ingestion, sys.Config.Relax
		sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
		cp := *ing
		cp.Materialized = core.MaterializeTopK(ing, sim, core.MaterializeOptions{
			Enabled: true, Relax: ropts,
			HeadFraction: 1, HeadMax: -1, MaxPerQuery: -1,
			Contexts: ing.Contexts,
		})
		cp.Candidates = core.BuildCandidateIndex(ing, sim, core.CandidateIndexOptions{
			Enabled: true, Radius: ropts.MaxRadius,
		})
		accelIng = &cp
	})
	return accelIng
}

// TestAcceleratedPathsMatchGolden pins the two offline accelerations —
// the materialized top-k store and the posting-list candidate index —
// against testdata/relax_golden.json. The golden file was generated by
// pure live traversal; an accelerated relaxer re-answering the same
// queries must hash identically, for the single-query path (the /relax
// read path) and the shared-scratch batch path (POST /relax/batch) alike.
// This is the byte-identity contract as a regression gate: any divergence
// between a precomputed answer and the live one fails here.
func TestAcceleratedPathsMatchGolden(t *testing.T) {
	want := goldenSummaries(t)
	sys := sharedSystem(t)
	queries := eval.SelectQueries(sys.Med, sys.Oracle, len(want))
	ing := sharedAccelerated(t)
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	newRelaxer := func() *core.Relaxer {
		return core.NewRelaxer(ing, sim, sys.Mapper, sys.Config.Relax)
	}
	const diverged = "accelerated output diverged from the pinned live traversal"

	t.Run("materialized", func(t *testing.T) {
		r := newRelaxer()
		if !r.SetMaterialized(ing.Materialized) {
			t.Fatal("materialized store refused by a same-options relaxer")
		}
		assertGolden(t, want, relaxerEntries(r, queries), diverged)
		if _, m, _ := r.PathCounts(); m == 0 {
			t.Error("no golden query was served from the materialized store")
		}
	})

	t.Run("indexed", func(t *testing.T) {
		r := newRelaxer()
		if !r.SetCandidateIndex(ing.Candidates) {
			t.Fatal("candidate index refused by a same-options relaxer")
		}
		assertGolden(t, want, relaxerEntries(r, queries), diverged)
		if _, _, ix := r.PathCounts(); ix == 0 {
			t.Error("no golden query was served through the candidate index")
		}
	})

	t.Run("batch", func(t *testing.T) {
		r := newRelaxer()
		if !r.SetMaterialized(ing.Materialized) {
			t.Fatal("materialized store refused by a same-options relaxer")
		}
		if !r.SetCandidateIndex(ing.Candidates) {
			t.Fatal("candidate index refused by a same-options relaxer")
		}
		assertGolden(t, want, batchEntries(t, r, queries), diverged)
	})
}
