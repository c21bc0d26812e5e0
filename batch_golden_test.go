package medrelax

import (
	"testing"

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
	want := goldenSummaries(t)
	sys := sharedSystem(t)
	queries := eval.SelectQueries(sys.Med, sys.Oracle, len(want))
	assertGolden(t, want, batchEntries(t, sys.Engine.Relaxer(), queries),
		"batch output diverged from the pinned sequential implementation")
}
