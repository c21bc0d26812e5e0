package core

import (
	"math"
	"slices"
	"sync"

	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

// FeedbackStore accumulates user relevance feedback on relaxed results and
// turns it into score adjustments — the improvement path the paper's
// conclusion proposes ("incorporate the user's relevance feedback in the
// query relaxation method, and ... progressively improve the relaxed
// results", citing Su et al., KDD 2015).
//
// Feedback is kept per (query concept, candidate concept, context
// relationship) tuple, so learning that hypothermia is a bad relaxation of
// psychogenic fever *for treatment queries* does not poison other
// contexts. Scores are adjusted multiplicatively by a logistic function of
// the net feedback, bounded to [MinBoost, MaxBoost], so a few clicks nudge
// the ranking and sustained feedback dominates it, but can never resurrect
// a zero-similarity candidate.
//
// FeedbackStore is safe for concurrent use.
type FeedbackStore struct {
	mu sync.RWMutex
	// net[key] is (positive - negative) feedback.
	net map[feedbackKey]int
	// Sharpness controls how fast the multiplier saturates; default 0.5.
	Sharpness float64
	// MinBoost and MaxBoost bound the multiplier; defaults 0.25 and 2.
	MinBoost, MaxBoost float64
}

type feedbackKey struct {
	query, cand  eks.ConceptID
	relationship string
}

// NewFeedbackStore returns an empty store with default parameters.
func NewFeedbackStore() *FeedbackStore {
	return &FeedbackStore{
		net:       map[feedbackKey]int{},
		Sharpness: 0.5,
		MinBoost:  0.25,
		MaxBoost:  2,
	}
}

func key(query, cand eks.ConceptID, ctx *ontology.Context) feedbackKey {
	rel := ""
	if ctx != nil {
		rel = ctx.Relationship
	}
	return feedbackKey{query: query, cand: cand, relationship: rel}
}

// Accept records positive feedback: the user found cand a useful
// relaxation of query in ctx.
func (f *FeedbackStore) Accept(query, cand eks.ConceptID, ctx *ontology.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.net[key(query, cand, ctx)]++
}

// Reject records negative feedback.
func (f *FeedbackStore) Reject(query, cand eks.ConceptID, ctx *ontology.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.net[key(query, cand, ctx)]--
}

// Net returns the net feedback for the tuple.
func (f *FeedbackStore) Net(query, cand eks.ConceptID, ctx *ontology.Context) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.net[key(query, cand, ctx)]
}

// Len returns the number of tuples with any feedback.
func (f *FeedbackStore) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.net)
}

// Multiplier converts the net feedback into a score multiplier: 1 with no
// feedback, saturating at MaxBoost for strongly accepted pairs and
// MinBoost for strongly rejected ones.
func (f *FeedbackStore) Multiplier(query, cand eks.ConceptID, ctx *ontology.Context) float64 {
	n := f.Net(query, cand, ctx)
	if n == 0 {
		return 1
	}
	f.mu.RLock()
	sharp, lo, hi := f.Sharpness, f.MinBoost, f.MaxBoost
	f.mu.RUnlock()
	if sharp <= 0 {
		sharp = 0.5
	}
	if hi <= 0 {
		hi = 2
	}
	if lo <= 0 || lo > 1 {
		lo = 0.25
	}
	// Logistic in the net count, mapped onto [lo, hi] with 1 at n=0.
	s := 1 / (1 + math.Exp(-sharp*float64(n))) // (0,1), 0.5 at n=0
	if s >= 0.5 {
		return 1 + (hi-1)*(s-0.5)*2
	}
	return lo + (1-lo)*s*2
}

// Rerank applies the feedback multipliers to a ranked result list in place
// and re-sorts it, preserving the deterministic tie-break on concept ID.
// query is the concept the results relax.
func (f *FeedbackStore) Rerank(query eks.ConceptID, ctx *ontology.Context, results []Result) {
	for i := range results {
		results[i].Score *= f.Multiplier(query, results[i].Concept, ctx)
	}
	sortResults(results)
}

func sortResults(results []Result) {
	slices.SortFunc(results, func(a, b Result) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}

func less(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Concept < b.Concept
}

// FeedbackRelaxer wraps a Relaxer with a FeedbackStore: relaxations are
// reranked by accumulated feedback before being returned.
type FeedbackRelaxer struct {
	*Relaxer
	Feedback *FeedbackStore
}

// NewFeedbackRelaxer wraps relaxer; a nil store gets a fresh one.
func NewFeedbackRelaxer(relaxer *Relaxer, store *FeedbackStore) *FeedbackRelaxer {
	if store == nil {
		store = NewFeedbackStore()
	}
	return &FeedbackRelaxer{Relaxer: relaxer, Feedback: store}
}

// RelaxTerm relaxes the term and reranks by feedback.
func (r *FeedbackRelaxer) RelaxTerm(term string, ctx *ontology.Context, k int) ([]Result, error) {
	q, ok := r.mapper.Map(term)
	if !ok {
		return r.Relaxer.RelaxTerm(term, ctx, k) // surface the same error
	}
	return r.RelaxConceptWithFeedback(q, ctx, k), nil
}

// RelaxConceptWithFeedback relaxes and reranks.
func (r *FeedbackRelaxer) RelaxConceptWithFeedback(q eks.ConceptID, ctx *ontology.Context, k int) []Result {
	results := r.Relaxer.RelaxConcept(q, ctx, 0)
	r.Feedback.Rerank(q, ctx, results)
	if k <= 0 {
		return results
	}
	var out []Result
	instances := 0
	for _, res := range results {
		if instances >= k {
			break
		}
		out = append(out, res)
		instances += len(res.Instances)
	}
	return out
}
