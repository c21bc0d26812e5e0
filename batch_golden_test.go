package medrelax

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eval"
)

// TestRelaxBatchMatchesGolden pins the batch read path against
// testdata/relax_golden.json: every golden query is re-answered through
// Relaxer.RelaxBatch — the shared-scratch path POST /relax/batch rides —
// and the reconstructed entries must hash identically to the sequential
// seed implementation. Ranked lists come from K=0 items, top-k prefixes
// from K=10 items, in one interleaved batch so scratch reuse across
// differently-shaped queries is exercised too.
func TestRelaxBatchMatchesGolden(t *testing.T) {
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

	// Two batch items per golden query: full ranked list, then the k=10
	// instance-bounded prefix — exactly the two views a GoldenEntry pins.
	batch := make([]core.Request, 0, 2*len(queries))
	for _, q := range queries {
		batch = append(batch,
			core.Request{Concept: q.Concept, UseConcept: true, Ctx: q.Ctx, K: 0},
			core.Request{Concept: q.Concept, UseConcept: true, Ctx: q.Ctx, K: 10},
		)
	}
	results := sys.Engine.Relaxer().RelaxBatch(context.Background(), batch)
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
			t.Errorf("query %d (%q): batch output diverged from the pinned sequential implementation", i, w.Term)
		}
	}
}
