package dialog

import (
	"fmt"
	"math"
	"sort"

	"medrelax/internal/ontology"
	"medrelax/internal/stringutil"
)

// IntentClassifier recognizes the query context of an utterance. It is a
// multinomial naive Bayes model over bag-of-words features with Laplace
// smoothing — the same learning-based contract as the commercial NLI the
// paper integrates with, trained from the ontology-bootstrapped examples.
type IntentClassifier struct {
	contexts []ontology.Context
	// logPrior[c] and logLik[c][w] in log space.
	logPrior []float64
	wordLik  []map[string]float64
	// defaultLik[c] is the smoothed likelihood of an unseen word.
	defaultLik []float64
	vocab      map[string]bool
}

// TrainIntentClassifier fits the model. It returns an error when examples
// are empty.
func TrainIntentClassifier(examples []Example) (*IntentClassifier, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("dialog: no training examples")
	}
	// Index contexts.
	ctxIdx := map[string]int{}
	var contexts []ontology.Context
	for _, ex := range examples {
		key := ex.Context.String()
		if _, ok := ctxIdx[key]; !ok {
			ctxIdx[key] = len(contexts)
			contexts = append(contexts, ex.Context)
		}
	}
	counts := make([]map[string]int, len(contexts))
	totals := make([]int, len(contexts))
	docs := make([]int, len(contexts))
	vocab := map[string]bool{}
	for i := range counts {
		counts[i] = map[string]int{}
	}
	for _, ex := range examples {
		ci := ctxIdx[ex.Context.String()]
		docs[ci]++
		for _, tok := range stringutil.Tokenize(ex.Text) {
			counts[ci][tok]++
			totals[ci]++
			vocab[tok] = true
		}
	}
	v := float64(len(vocab))
	c := &IntentClassifier{
		contexts:   contexts,
		logPrior:   make([]float64, len(contexts)),
		wordLik:    make([]map[string]float64, len(contexts)),
		defaultLik: make([]float64, len(contexts)),
		vocab:      vocab,
	}
	n := float64(len(examples))
	for i := range contexts {
		c.logPrior[i] = math.Log(float64(docs[i]) / n)
		c.wordLik[i] = make(map[string]float64, len(counts[i]))
		denom := float64(totals[i]) + v
		for w, cnt := range counts[i] {
			c.wordLik[i][w] = math.Log((float64(cnt) + 1) / denom)
		}
		c.defaultLik[i] = math.Log(1 / denom)
	}
	return c, nil
}

// ClassifyAmong is Classify restricted to contexts accepted by the filter,
// used to reconcile the intent with the semantic type of the extracted
// entity (a Finding mention can only fill a Finding-ranged context). It
// falls back to the unrestricted classification when the filter rejects
// every context.
func (c *IntentClassifier) ClassifyAmong(text string, filter func(ontology.Context) bool) (ontology.Context, float64) {
	var best *ontology.Context
	bestScore := 0.0
	for _, ctx := range c.contexts {
		if !filter(ctx) {
			continue
		}
		score := c.score(text, ctx)
		if best == nil || score > bestScore || (score == bestScore && ctx.String() < best.String()) {
			cc := ctx
			best = &cc
			bestScore = score
		}
	}
	if best == nil {
		return c.Classify(text)
	}
	return *best, 1
}

// score computes the unnormalized log posterior of one context.
func (c *IntentClassifier) score(text string, target ontology.Context) float64 {
	for i, ctx := range c.contexts {
		if ctx == target {
			s := c.logPrior[i]
			for _, tok := range stringutil.Tokenize(text) {
				if !c.vocab[tok] {
					continue
				}
				if lik, ok := c.wordLik[i][tok]; ok {
					s += lik
				} else {
					s += c.defaultLik[i]
				}
			}
			return s
		}
	}
	return 0
}

// Classify returns the most probable context for the utterance, with its
// posterior probability. Ties break toward the lexicographically smaller
// context string for determinism.
func (c *IntentClassifier) Classify(text string) (ontology.Context, float64) {
	tokens := stringutil.Tokenize(text)
	scores := make([]float64, len(c.contexts))
	for i := range c.contexts {
		s := c.logPrior[i]
		for _, tok := range tokens {
			if !c.vocab[tok] {
				continue // unseen everywhere: uninformative
			}
			if lik, ok := c.wordLik[i][tok]; ok {
				s += lik
			} else {
				s += c.defaultLik[i]
			}
		}
		scores[i] = s
	}
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return c.contexts[order[a]].String() < c.contexts[order[b]].String()
	})
	best := order[0]
	// Softmax over log scores for a calibrated-ish confidence.
	maxS := scores[best]
	var z float64
	for _, s := range scores {
		z += math.Exp(s - maxS)
	}
	return c.contexts[best], 1 / z
}
