package medrelax

import (
	"path/filepath"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eval"
	"medrelax/internal/persist"
)

// TestFlatBundleMatchesGolden pins the zero-copy flat (v4) bundle against
// testdata/relax_golden.json: the shared accelerated ingestion — the shared
// system's, carrying the full-head materialized store and the candidate
// index — is saved flat, reopened through the mmap path, and re-answers
// every golden query over the flat-mapped columns. Live traversal, the materialized store, the
// candidate index, and the shared-scratch batch path must all hash
// identically to the pinned live output; any byte of divergence between a
// flat-mapped world and the heap world it was saved from fails here.
func TestFlatBundleMatchesGolden(t *testing.T) {
	want := goldenSummaries(t)
	sys := sharedSystem(t)
	queries := eval.SelectQueries(sys.Med, sys.Oracle, len(want))

	path := filepath.Join(t.TempDir(), "golden.flat")
	if err := persist.SaveFileAtomic(path, sharedAccelerated(t), persist.FormatFlat); err != nil {
		t.Fatalf("saving flat bundle: %v", err)
	}
	restored, err := persist.LoadFile(path)
	if err != nil {
		t.Fatalf("opening flat bundle: %v", err)
	}
	if restored.Backing == nil {
		t.Fatal("flat bundle restored without a backing")
	}
	rsim := core.NewSimilarity(restored.Graph, restored.Frequencies, restored.Ontology)
	newRelaxer := func() *core.Relaxer {
		return core.NewRelaxer(restored, rsim, sys.Mapper, sys.Config.Relax)
	}
	const diverged = "flat-mapped output diverged from the pinned live traversal"

	t.Run("live", func(t *testing.T) {
		assertGolden(t, want, relaxerEntries(newRelaxer(), queries), diverged)
	})

	t.Run("materialized", func(t *testing.T) {
		r := newRelaxer()
		if !r.SetMaterialized(restored.Materialized) {
			t.Fatal("flat materialized store refused by a same-options relaxer")
		}
		assertGolden(t, want, relaxerEntries(r, queries), diverged)
		if _, m, _ := r.PathCounts(); m == 0 {
			t.Error("no golden query was served from the flat materialized store")
		}
	})

	t.Run("indexed", func(t *testing.T) {
		r := newRelaxer()
		if !r.SetCandidateIndex(restored.Candidates) {
			t.Fatal("flat candidate index refused by a same-options relaxer")
		}
		assertGolden(t, want, relaxerEntries(r, queries), diverged)
		if _, _, ix := r.PathCounts(); ix == 0 {
			t.Error("no golden query was served through the flat candidate index")
		}
	})

	t.Run("batch", func(t *testing.T) {
		r := newRelaxer()
		if !r.SetMaterialized(restored.Materialized) {
			t.Fatal("flat materialized store refused by a same-options relaxer")
		}
		if !r.SetCandidateIndex(restored.Candidates) {
			t.Fatal("flat candidate index refused by a same-options relaxer")
		}
		assertGolden(t, want, batchEntries(t, r, queries), diverged)
	})
}
