package medrelax

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"medrelax/internal/core"
	"medrelax/internal/eval"
)

// GoldenEntry pins one query's ranked relaxation output: the full ranked
// candidate list (k=0) and the k=10 instance-bounded prefix. It backs the
// regression harness that asserts the online phase's output is identical
// across performance refactors (cmd/relaxgolden regenerates the file,
// TestRelaxMatchesGolden asserts it).
type GoldenEntry struct {
	Term    string         `json:"term"`
	Concept int64          `json:"concept"`
	Context string         `json:"context"`
	Ranked  []GoldenResult `json:"ranked"`
	TopK    []GoldenResult `json:"topk"`
}

// GoldenResult is one pinned ranked candidate.
type GoldenResult struct {
	Concept   int64   `json:"concept"`
	Score     float64 `json:"score"`
	Hops      int     `json:"hops"`
	Instances []int64 `json:"instances"`
}

// GoldenEntries runs every query through the system's relaxer and captures
// the ranked output, both context-sensitive and with k=10 truncation.
func GoldenEntries(sys *System, queries []eval.Query) []GoldenEntry {
	return relaxerEntries(sys.Relaxer, queries)
}

// relaxerEntries is GoldenEntries over any relaxer.
func relaxerEntries(r *core.Relaxer, queries []eval.Query) []GoldenEntry {
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

func goldenResults(results []core.Result) []GoldenResult {
	out := make([]GoldenResult, 0, len(results))
	for _, r := range results {
		gr := GoldenResult{Concept: int64(r.Concept), Score: r.Score, Hops: r.Hops}
		for _, iid := range r.Instances {
			gr.Instances = append(gr.Instances, int64(iid))
		}
		out = append(out, gr)
	}
	return out
}

// GoldenSummary condenses one GoldenEntry into a content hash: the SHA-256
// of the entry's canonical JSON. Committing summaries instead of the full
// ranked lists keeps the pinned file small while still failing on any
// change to concept order, score bits, hop counts or instance lists.
type GoldenSummary struct {
	Term      string `json:"term"`
	Concept   int64  `json:"concept"`
	Context   string `json:"context"`
	RankedLen int    `json:"rankedLen"`
	TopKLen   int    `json:"topkLen"`
	Hash      string `json:"hash"`
}

// Summarize hashes each entry's canonical JSON form.
func Summarize(entries []GoldenEntry) ([]GoldenSummary, error) {
	out := make([]GoldenSummary, 0, len(entries))
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			return nil, fmt.Errorf("medrelax: marshaling golden entry %q: %w", e.Term, err)
		}
		sum := sha256.Sum256(data)
		out = append(out, GoldenSummary{
			Term:      e.Term,
			Concept:   e.Concept,
			Context:   e.Context,
			RankedLen: len(e.Ranked),
			TopKLen:   len(e.TopK),
			Hash:      hex.EncodeToString(sum[:]),
		})
	}
	return out, nil
}
