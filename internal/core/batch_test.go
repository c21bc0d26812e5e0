package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"medrelax/internal/ontology"
)

// TestRelaxBatchMatchesSequential pins the batch read path to the
// sequential one: for every mix of term/concept items, contexts, and k
// values, RelaxBatch must return exactly what per-item calls of Relax
// return, in input order.
func TestRelaxBatchMatchesSequential(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 6})
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	queries := []Request{
		{Term: "headache", Ctx: ctx, K: 3},
		{Term: "fever", K: 0}, // full ranked list, context-free
		{Concept: 5, UseConcept: true, Ctx: ctx, K: 2},
		{Term: "headache", Ctx: ctx, K: 3}, // repeated head term, scratch reuse
		{Term: "no such term anywhere", K: 5},
		{Term: "headache", K: 3, Err: fmt.Errorf("%w: the caller could not parse it", ErrBadContext)}, // echoed, not relaxed
		{Term: "bronchitis", Ctx: ctx, K: 10},
	}
	got := r.RelaxBatch(context.Background(), queries)
	if len(got) != len(queries) {
		t.Fatalf("batch returned %d responses for %d queries", len(got), len(queries))
	}
	for i, q := range queries {
		want := r.Relax(context.Background(), q)
		if (want.Err == nil) != (got[i].Err == nil) {
			t.Fatalf("item %d: batch err %v, sequential err %v", i, got[i].Err, want.Err)
		}
		if want.Err != nil {
			if got[i].Err.Error() != want.Err.Error() || errors.Is(got[i].Err, ErrUnknownTerm) == errors.Is(got[i].Err, ErrBadContext) {
				t.Errorf("item %d: batch error %v, sequential %v; want the same, wrapping ErrUnknownTerm or ErrBadContext", i, got[i].Err, want.Err)
			}
			continue
		}
		if !reflect.DeepEqual(got[i].Results, want.Results) {
			t.Errorf("item %d (%+v): batch diverged from sequential:\nbatch: %v\nseq:   %v", i, q, got[i].Results, want.Results)
		}
	}
}

// TestRelaxBatchDeadline verifies that an expired context fails the
// remaining items with the context error instead of burning CPU on them.
func TestRelaxBatchDeadline(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{Radius: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := []Request{{Term: "headache", K: 3}, {Term: "fever", K: 3}}
	for i, resp := range r.RelaxBatch(ctx, queries) {
		if !errors.Is(resp.Err, context.Canceled) {
			t.Errorf("item %d: err = %v, want context.Canceled", i, resp.Err)
		}
	}

	// A deadline firing mid-batch fails the tail but keeps the head.
	dctx, dcancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer dcancel()
	head := r.RelaxBatch(dctx, []Request{{Term: "headache", K: 3}})
	if head[0].Err != nil || len(head[0].Results) == 0 {
		t.Fatalf("live-context batch item failed: %v", head[0].Err)
	}
}

// TestRelaxBatchConcurrent runs concurrent batches against one Relaxer
// under -race: the scratch is per-call, the relaxer itself shared.
func TestRelaxBatchConcurrent(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 6})
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	queries := []Request{
		{Term: "headache", Ctx: ctx, K: 3},
		{Term: "fever", K: 4},
		{Term: "pain in throat", Ctx: ctx, K: 2},
	}
	want := r.RelaxBatch(context.Background(), queries)
	for i, resp := range want {
		if resp.Err != nil {
			t.Fatalf("baseline item %d: %v", i, resp.Err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got := r.RelaxBatch(context.Background(), queries)
				for j := range queries {
					if got[j].Err != nil {
						t.Errorf("concurrent batch item %d: %v", j, got[j].Err)
						return
					}
					if !reflect.DeepEqual(got[j].Results, want[j].Results) {
						t.Errorf("concurrent batch item %d diverged", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
