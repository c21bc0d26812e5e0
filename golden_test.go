package medrelax

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eval"
)

// goldenSummaries reads the pinned summaries of testdata/relax_golden.json.
func goldenSummaries(t *testing.T) []GoldenSummary {
	t.Helper()
	data, err := os.ReadFile("testdata/relax_golden.json")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var want []GoldenSummary
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	return want
}

// assertGolden compares entries with the pinned summaries: per query the
// identity, the two result counts and the content hash. diverged names the
// output and what it was pinned against in a hash mismatch.
func assertGolden(t *testing.T, want []GoldenSummary, entries []GoldenEntry, diverged string) {
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
			t.Errorf("query %d (%q): %s", i, w.Term, diverged)
		}
	}
}

// batchEntries re-answers queries through r's batch path: two items per
// query, the full ranked list (K=0) and the k=10 instance-bounded prefix —
// exactly the two views a GoldenEntry pins — in one interleaved batch, so
// scratch reuse across differently-shaped queries is exercised too.
func batchEntries(t *testing.T, r *core.Relaxer, queries []eval.Query) []GoldenEntry {
	t.Helper()
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
	return entries
}

// TestRelaxMatchesGolden asserts that the online phase's ranked output —
// concept order, score bits, hop counts, instance lists — is identical to
// the pinned output in testdata/relax_golden.json, which was generated with
// the original map-based graph kernel and serialized similarity evaluator.
// Any optimization that changes results fails here. Regenerate (only after
// an intentional semantic change) with:
//
//	go run ./cmd/relaxgolden -out testdata/relax_golden.json
func TestRelaxMatchesGolden(t *testing.T) {
	want := goldenSummaries(t)
	sys := sharedSystem(t)
	entries := GoldenEntries(sys, eval.SelectQueries(sys.Med, sys.Oracle, len(want)))
	assertGolden(t, want, entries, "ranked output diverged from the pinned seed implementation")
}
