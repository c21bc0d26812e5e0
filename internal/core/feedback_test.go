package core

import (
	"math"
	"sync"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
)

func TestFeedbackMultiplierShape(t *testing.T) {
	f := NewFeedbackStore()
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	// No feedback: neutral.
	if got := f.Multiplier(1, 2, ctx); got != 1 {
		t.Errorf("neutral multiplier = %v", got)
	}
	// Accepts raise, rejects lower, monotonically.
	prev := 1.0
	for i := 0; i < 10; i++ {
		f.Accept(1, 2, ctx)
		m := f.Multiplier(1, 2, ctx)
		if m < prev {
			t.Fatalf("multiplier not monotone in accepts: %v then %v", prev, m)
		}
		prev = m
	}
	if prev > f.MaxBoost {
		t.Errorf("multiplier %v exceeds MaxBoost %v", prev, f.MaxBoost)
	}
	prev = 1.0
	for i := 0; i < 10; i++ {
		f.Reject(3, 4, ctx)
		m := f.Multiplier(3, 4, ctx)
		if m > prev {
			t.Fatalf("multiplier not monotone in rejects: %v then %v", prev, m)
		}
		prev = m
	}
	if prev < f.MinBoost {
		t.Errorf("multiplier %v below MinBoost %v", prev, f.MinBoost)
	}
	// Accept then reject cancels back to neutral.
	f.Accept(5, 6, ctx)
	f.Reject(5, 6, ctx)
	if got := f.Multiplier(5, 6, ctx); math.Abs(got-1) > 1e-9 {
		t.Errorf("cancelled feedback multiplier = %v", got)
	}
}

func TestFeedbackContextIsolation(t *testing.T) {
	f := NewFeedbackStore()
	ind := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	risk := &ontology.Context{Domain: "Risk", Relationship: "raisesRisk", Range: "Finding"}
	f.Reject(1, 2, ind)
	f.Reject(1, 2, ind)
	if f.Multiplier(1, 2, risk) != 1 {
		t.Error("feedback leaked across contexts with different relationships")
	}
	if f.Multiplier(1, 2, ind) >= 1 {
		t.Error("rejected pair not demoted in its own context")
	}
	// Nil context is its own bucket.
	if f.Multiplier(1, 2, nil) != 1 {
		t.Error("feedback leaked into the context-free bucket")
	}
}

func TestFeedbackRerank(t *testing.T) {
	f := NewFeedbackStore()
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	results := []Result{
		{Concept: 10, Score: 0.9},
		{Concept: 20, Score: 0.8},
		{Concept: 30, Score: 0.7},
	}
	// Heavy rejection of the top result and acceptance of the last flips
	// the order.
	for i := 0; i < 8; i++ {
		f.Reject(1, 10, ctx)
		f.Accept(1, 30, ctx)
	}
	f.Rerank(1, ctx, results)
	if results[0].Concept != 30 || results[2].Concept != 10 {
		t.Errorf("rerank order = %v, %v, %v", results[0].Concept, results[1].Concept, results[2].Concept)
	}
}

func TestFeedbackRelaxerEndToEnd(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	base := NewRelaxer(ing, sim, match.NewExact(ing.Graph), RelaxOptions{Radius: 4})
	fr := NewFeedbackRelaxer(base, nil)
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}

	before, err := fr.RelaxTerm("headache", ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) < 2 {
		t.Skipf("not enough candidates to exercise reranking: %d", len(before))
	}
	top := before[0].Concept
	// The user keeps rejecting the top result...
	q, _ := match.NewExact(ing.Graph).Map("headache")
	for i := 0; i < 12; i++ {
		fr.Feedback.Reject(q, top, ctx)
	}
	after, err := fr.RelaxTerm("headache", ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The rejected concept's score must be heavily discounted (down to the
	// MinBoost floor) — whether it loses the top spot depends on how far
	// ahead it was, which the floor intentionally bounds.
	var demoted float64
	for _, r := range after {
		if r.Concept == top {
			demoted = r.Score
		}
	}
	if demoted > 0.3*before[0].Score {
		t.Errorf("rejected concept score %v not demoted from %v", demoted, before[0].Score)
	}
	// ...and the unwrapped relaxer is unaffected.
	raw, err := base.RelaxTerm("headache", ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0].Concept != top {
		t.Error("feedback leaked into the base relaxer")
	}
	// Unknown terms surface the underlying error.
	if _, err := fr.RelaxTerm("zzqx", ctx, 0); err == nil {
		t.Error("unmappable term must fail")
	}
	// k counts instances, as in the base relaxer.
	limited, err := fr.RelaxTerm("headache", ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) == 0 || len(limited) > len(after) {
		t.Errorf("k-limited results = %d", len(limited))
	}
}

func TestFeedbackConcurrency(t *testing.T) {
	f := NewFeedbackStore()
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Accept(eks.ConceptID(w), 99, ctx)
				f.Multiplier(eks.ConceptID(w), 99, ctx)
				f.Reject(99, eks.ConceptID(w), ctx)
			}
		}(w)
	}
	wg.Wait()
	if f.Len() != 16 {
		t.Errorf("tuples = %d, want 16", f.Len())
	}
	if f.Net(0, 99, ctx) != 200 {
		t.Errorf("net = %d, want 200", f.Net(0, 99, ctx))
	}
}

func TestSortResultsDeterministicTies(t *testing.T) {
	rs := []Result{{Concept: 5, Score: 0.5}, {Concept: 2, Score: 0.5}, {Concept: 9, Score: 0.9}}
	sortResults(rs)
	if rs[0].Concept != 9 || rs[1].Concept != 2 || rs[2].Concept != 5 {
		t.Errorf("sorted = %v", rs)
	}
	_ = kb.InstanceID(0)
}
