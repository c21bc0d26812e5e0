package medrelax

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eval"
	"medrelax/internal/persist"
)

// TestFlatBundleMatchesGolden pins the zero-copy flat (v4) bundle against
// testdata/relax_golden.json: the shared system's ingestion — carrying the
// full-head materialized store and the candidate index — is saved flat,
// reopened through the mmap path, and re-answers every golden query over
// the flat-mapped columns. Live traversal, the materialized store, the
// candidate index, and the shared-scratch batch path must all hash
// identically to the pinned live output; any byte of divergence between a
// flat-mapped world and the heap world it was saved from fails here.
func TestFlatBundleMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/relax_golden.json")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var want []GoldenSummary
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}

	sys := sharedSystem(t)
	queries := eval.SelectQueries(sys.Med, sys.Oracle, len(want))
	ing := sys.Ingestion
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	ropts := sys.Config.Relax

	// Same acceleration shapes the accel golden test pins, so the flat
	// bundle round-trips them too. Attached to a shallow copy: the shared
	// system's ingestion stays untouched for other tests.
	cp := *ing
	cp.Materialized = core.MaterializeTopK(ing, sim, core.MaterializeOptions{
		Enabled: true, Relax: ropts,
		HeadFraction: 1, HeadMax: -1, MaxPerQuery: -1,
		Contexts: ing.Contexts,
	})
	cp.Candidates = core.BuildCandidateIndex(ing, sim, core.CandidateIndexOptions{
		Enabled: true, Radius: ropts.MaxRadius,
	})

	path := filepath.Join(t.TempDir(), "golden.flat")
	if err := persist.SaveFileAtomic(path, &cp, persist.FormatFlat); err != nil {
		t.Fatalf("saving flat bundle: %v", err)
	}
	restored, err := persist.OpenFlat(path)
	if err != nil {
		t.Fatalf("opening flat bundle: %v", err)
	}
	if restored.Backing == nil {
		t.Fatal("flat bundle restored without a backing")
	}
	rsim := core.NewSimilarity(restored.Graph, restored.Frequencies, restored.Ontology)
	newRelaxer := func() *core.Relaxer {
		return core.NewRelaxer(restored, rsim, sys.Mapper, ropts)
	}

	assertGolden := func(t *testing.T, entries []GoldenEntry) {
		t.Helper()
		got, err := Summarize(entries)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d summaries, want %d", len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.Term != w.Term || g.Concept != w.Concept || g.Context != w.Context {
				t.Errorf("query %d: identity mismatch: got (%q, %d, %q), want (%q, %d, %q)",
					i, g.Term, g.Concept, g.Context, w.Term, w.Concept, w.Context)
				continue
			}
			if g.RankedLen != w.RankedLen || g.TopKLen != w.TopKLen {
				t.Errorf("query %d (%q): result counts changed: ranked %d->%d, topk %d->%d",
					i, w.Term, w.RankedLen, g.RankedLen, w.TopKLen, g.TopKLen)
			}
			if g.Hash != w.Hash {
				t.Errorf("query %d (%q): flat-mapped output diverged from the pinned live traversal", i, w.Term)
			}
		}
	}
	collect := func(r *core.Relaxer) []GoldenEntry {
		entries := make([]GoldenEntry, 0, len(queries))
		for _, q := range queries {
			e := GoldenEntry{Term: q.Term, Concept: int64(q.Concept)}
			if q.Ctx != nil {
				e.Context = q.Ctx.String()
			}
			e.Ranked = goldenResults(r.RelaxConcept(q.Concept, q.Ctx, 0))
			e.TopK = goldenResults(r.RelaxConcept(q.Concept, q.Ctx, 10))
			entries = append(entries, e)
		}
		return entries
	}

	t.Run("live", func(t *testing.T) {
		assertGolden(t, collect(newRelaxer()))
	})

	t.Run("materialized", func(t *testing.T) {
		r := newRelaxer()
		if !r.SetMaterialized(restored.Materialized) {
			t.Fatal("flat materialized store refused by a same-options relaxer")
		}
		assertGolden(t, collect(r))
		if _, m, _ := r.PathCounts(); m == 0 {
			t.Error("no golden query was served from the flat materialized store")
		}
	})

	t.Run("indexed", func(t *testing.T) {
		r := newRelaxer()
		if !r.SetCandidateIndex(restored.Candidates) {
			t.Fatal("flat candidate index refused by a same-options relaxer")
		}
		assertGolden(t, collect(r))
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
		batch := make([]core.Request, 0, 2*len(queries))
		for _, q := range queries {
			batch = append(batch,
				core.Request{Concept: q.Concept, UseConcept: true, Ctx: q.Ctx, K: 0},
				core.Request{Concept: q.Concept, UseConcept: true, Ctx: q.Ctx, K: 10},
			)
		}
		results := r.RelaxBatch(context.Background(), batch)
		for i, resp := range results {
			if resp.Err != nil {
				t.Fatalf("batch item %d: %v", i, resp.Err)
			}
		}
		entries := make([]GoldenEntry, 0, len(queries))
		for i, q := range queries {
			e := GoldenEntry{Term: q.Term, Concept: int64(q.Concept)}
			if q.Ctx != nil {
				e.Context = q.Ctx.String()
			}
			e.Ranked = goldenResults(results[2*i].Results)
			e.TopK = goldenResults(results[2*i+1].Results)
			entries = append(entries, e)
		}
		assertGolden(t, entries)
	})
}
