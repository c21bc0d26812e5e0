package core

import (
	"context"
	"errors"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/ontology"
)

func newTestRelaxer(t *testing.T, opts RelaxOptions) (*Relaxer, *Ingestion) {
	t.Helper()
	ing := ingestWorld(t, IngestOptions{})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	r := NewRelaxer(ing, sim, exactMapper{ing.Graph}, opts)
	return r, ing
}

func TestRelaxTermUnknown(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{})
	if _, err := r.RelaxTerm("pyelectasia", nil, 5); err == nil {
		t.Error("unmappable term must fail")
	}
}

func TestRelaxRankingPrefersSameSubtree(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{Radius: 4})
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	results, err := r.RelaxTerm("headache", ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	// The best-ranked candidate for headache must come from the pain
	// subtree (pain in throat, 4) rather than fever (7) or bronchitis (10).
	if results[0].Concept != 4 {
		t.Errorf("top candidate = %d, want 4 (pain in throat); results %+v", results[0].Concept, results)
	}
	// Scores are sorted descending.
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
	// Only flagged concepts are returned.
	for _, res := range results {
		if res.Concept == 2 || res.Concept == 3 || res.Concept == 6 {
			t.Errorf("unflagged concept %d returned", res.Concept)
		}
	}
}

func TestRelaxSelfExcludedByDefault(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{})
	results, err := r.RelaxTerm("fever", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Concept == 7 {
			t.Error("query concept itself returned without IncludeSelf")
		}
	}
}

func TestRelaxIncludeSelf(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{IncludeSelf: true})
	results, err := r.RelaxTerm("fever", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || results[0].Concept != 7 || results[0].Score != 1 || results[0].Hops != 0 {
		t.Errorf("self must rank first with score 1: %+v", results)
	}
}

func TestRelaxKCountsInstances(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{Radius: 4})
	// k=1: stop after the first candidate contributes an instance.
	results, err := r.RelaxTerm("headache", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Errorf("k=1 must stop at one contributing candidate, got %d", len(results))
	}
	total := 0
	for _, res := range results {
		total += len(res.Instances)
	}
	if total < 1 {
		t.Error("no instances collected")
	}
}

func TestRelaxDynamicRadius(t *testing.T) {
	// With a radius too small to reach anything, dynamic growth must find
	// candidates anyway.
	ing := ingestWorld(t, IngestOptions{DisableShortcuts: true})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	fixed := NewRelaxer(ing, sim, exactMapper{ing.Graph}, RelaxOptions{Radius: 1})
	grown := NewRelaxer(ing, sim, exactMapper{ing.Graph}, RelaxOptions{Radius: 1, DynamicRadius: true, MaxRadius: 6})
	// pertussis (11): nearest flagged concept is bronchitis (10) at 2 hops
	// without shortcuts.
	fres, err := fixed.RelaxTerm("pertussis", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fres) != 0 {
		t.Errorf("radius 1 without shortcuts must find nothing, got %+v", fres)
	}
	gres, err := grown.RelaxTerm("pertussis", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gres) == 0 {
		t.Fatal("dynamic radius found nothing")
	}
	if gres[0].Concept != 10 {
		t.Errorf("top candidate = %d, want bronchitis (10)", gres[0].Concept)
	}
}

func TestRelaxShortcutsWidenReach(t *testing.T) {
	// The motivating property of customization: with shortcuts, a small
	// fixed radius reaches flagged concepts that are semantically far.
	withS := ingestWorld(t, IngestOptions{})
	withoutS := ingestWorld(t, IngestOptions{DisableShortcuts: true})
	simS := NewSimilarity(withS.Graph, withS.Frequencies, withS.Ontology)
	simN := NewSimilarity(withoutS.Graph, withoutS.Frequencies, withoutS.Ontology)
	rS := NewRelaxer(withS, simS, exactMapper{withS.Graph}, RelaxOptions{Radius: 2})
	rN := NewRelaxer(withoutS, simN, exactMapper{withoutS.Graph}, RelaxOptions{Radius: 2})
	// From headache (5): without shortcuts, fever (7) is 4 hops
	// (5-3-2-1-7); radius 2 misses it. With shortcuts 5->1 it is 2 hops.
	resS, err := rS.RelaxTerm("headache", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	resN, err := rN.RelaxTerm("headache", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	has := func(rs []Result, id eks.ConceptID) bool {
		for _, r := range rs {
			if r.Concept == id {
				return true
			}
		}
		return false
	}
	if !has(resS, 7) {
		t.Error("with shortcuts, fever must be reachable at radius 2")
	}
	if has(resN, 7) {
		t.Error("without shortcuts, fever must be out of radius 2")
	}
	// And the similarity score of a common candidate is identical — the
	// customization preserves semantics.
	for _, res := range resS {
		if res.Concept == 4 {
			for _, resn := range resN {
				if resn.Concept == 4 && resn.Score != res.Score {
					t.Errorf("shortcut changed the score: %v vs %v", res.Score, resn.Score)
				}
			}
		}
	}
}

func TestTopKInstances(t *testing.T) {
	results := []Result{
		{Concept: 4, Score: 0.9, Instances: []kb.InstanceID{131}},
		{Concept: 7, Score: 0.8, Instances: []kb.InstanceID{132, 131}},
		{Concept: 10, Score: 0.7, Instances: []kb.InstanceID{133}},
	}
	got := TopKInstances(results, 2)
	if len(got) != 2 || got[0] != 131 || got[1] != 132 {
		t.Errorf("TopKInstances = %v, want [131 132]", got)
	}
	got = TopKInstances(results, 10)
	if len(got) != 3 {
		t.Errorf("TopKInstances all = %v", got)
	}
	if got := TopKInstances(nil, 3); len(got) != 0 {
		t.Errorf("empty results = %v", got)
	}
}

func TestMethodsRunAndDiffer(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	mapper := exactMapper{ing.Graph}
	opts := RelaxOptions{Radius: 4}
	methods := []Method{
		NewQR(ing, mapper, opts),
		NewQRNoContext(ing, mapper, opts),
		NewQRNoCorpus(ing, mapper, opts),
		NewICBaseline(ing, mapper, opts),
	}
	names := map[string]bool{}
	for _, m := range methods {
		if names[m.Name()] {
			t.Errorf("duplicate method name %s", m.Name())
		}
		names[m.Name()] = true
		got := m.RelaxConcepts("headache", &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}, 3)
		if len(got) == 0 {
			t.Errorf("%s returned nothing", m.Name())
		}
		// Unknown terms yield nil, not panic.
		if res := m.RelaxConcepts("pyelectasia", nil, 3); res != nil {
			t.Errorf("%s must return nil for unmappable terms", m.Name())
		}
	}
	if !names["QR"] || !names["QR-no-context"] || !names["QR-no-corpus"] || !names["IC"] {
		t.Errorf("method names wrong: %v", names)
	}
}

func TestRelaxTermUnknownIsSentinel(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{})
	_, err := r.RelaxTerm("pyelectasia", nil, 5)
	if !errors.Is(err, ErrUnknownTerm) {
		t.Errorf("unknown-term error = %v, want errors.Is(_, ErrUnknownTerm)", err)
	}
}

func TestRelaxTermContextCanceled(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{DynamicRadius: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Relax(ctx, Request{Term: "headache"}).Err; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled relaxation error = %v, want context.Canceled", err)
	}
	// A live context relaxes normally through the same path.
	if resp := r.Relax(context.Background(), Request{Term: "headache"}); resp.Err != nil || len(resp.Results) == 0 {
		t.Errorf("live-context relaxation = %v results, err %v", len(resp.Results), resp.Err)
	}
}
