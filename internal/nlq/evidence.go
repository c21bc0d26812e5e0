// Package nlq implements the natural language query system of the paper's
// Section 6.2, modeled after the ATHENA ontology-driven NLQ architecture
// (the paper's reference [35]) that the relaxation method is integrated
// into: evidence generation over the domain ontology and the KB, Steiner-
// tree-based interpretation generation over the semantic graph, ranking by
// compactness with relaxation scores as the tie-breaker, and emission of an
// executable structured query.
package nlq

import (
	"fmt"
	"sort"
	"strings"

	"medrelax/internal/core"
	"medrelax/internal/kb"
	"medrelax/internal/ontology"
	"medrelax/internal/stringutil"
)

// EvidenceKind distinguishes the paper's two evidence types.
type EvidenceKind int

// Evidence kinds: metadata evidence matches ontology elements, data-value
// evidence matches KB instances (directly or through relaxation).
const (
	Metadata EvidenceKind = iota
	DataValue
)

// Evidence is one candidate grounding of a query token span.
type Evidence struct {
	Kind EvidenceKind
	// Span is the normalized token span that produced the evidence.
	Span string
	// Concept is the ontology concept the evidence grounds to: for
	// metadata evidence the matched concept (or the relationship's
	// implied concept), for data-value evidence the instance's concept.
	Concept string
	// Relationship is set for metadata evidence that matched a
	// relationship name.
	Relationship string
	// Instances are the KB instances for data-value evidence.
	Instances []kb.InstanceID
	// Score is 1 for direct matches and the relaxation similarity for
	// relaxed data values.
	Score float64
	// Relaxed marks evidence produced by query relaxation.
	Relaxed bool
}

// EvidenceGenerator finds all evidences for an input query.
type EvidenceGenerator struct {
	onto  *ontology.Ontology
	store *kb.Store
	// relaxer is optional; with it, tokens unknown to both the ontology
	// and the KB are relaxed into data-value evidence.
	relaxer *core.Relaxer
	ing     *core.Ingestion

	// conceptLex and relLex map normalized names to ontology elements.
	conceptLex map[string]string
	relLex     map[string][]ontology.Relationship
	// relPhrases maps colloquial phrasings to relationship names.
	relPhrases map[string]string
	// stop tokens never begin an evidence span; they are question filler.
	stop map[string]bool
}

// NewEvidenceGenerator indexes the ontology and KB lexicons. relaxer and
// ing may be nil to disable relaxation.
func NewEvidenceGenerator(onto *ontology.Ontology, store *kb.Store, relaxer *core.Relaxer, ing *core.Ingestion) *EvidenceGenerator {
	g := &EvidenceGenerator{
		onto:       onto,
		store:      store,
		relaxer:    relaxer,
		ing:        ing,
		conceptLex: map[string]string{},
		relLex:     map[string][]ontology.Relationship{},
		relPhrases: map[string]string{
			"caused by": "cause", "causes": "cause", "causing": "cause",
			"treats": "treat", "treating": "treat", "treated by": "treat",
			"risks": "Risk", "risk": "Risk",
		},
		stop: map[string]bool{
			"what": true, "which": true, "are": true, "is": true, "the": true,
			"of": true, "for": true, "using": true, "with": true, "a": true,
			"an": true, "do": true, "does": true, "can": true, "to": true,
			"by": true, "and": true, "in": true, "when": true, "how": true,
		},
	}
	for _, name := range onto.ConceptNames() {
		g.conceptLex[stringutil.Normalize(name)] = name
		// Plural form.
		g.conceptLex[stringutil.Normalize(name)+"s"] = name
	}
	for _, r := range onto.Relationships() {
		key := stringutil.Normalize(r.Name)
		g.relLex[key] = append(g.relLex[key], r)
	}
	return g
}

// TokenEvidence is the evidence set of one token span.
type TokenEvidence struct {
	Span      string
	Evidences []Evidence
}

// Generate scans the query and returns the evidence set per matched span,
// in reading order. Spans that match nothing are dropped (they are
// connective tissue like "what" or "using").
func (g *EvidenceGenerator) Generate(query string) []TokenEvidence {
	toks := stringutil.Tokenize(query)
	var out []TokenEvidence
	for i := 0; i < len(toks); {
		te, n := g.matchAt(toks, i)
		if n == 0 {
			i++
			continue
		}
		out = append(out, te)
		i += n
	}
	return out
}

// matchAt finds the longest span starting at i with any evidence. Spans
// starting on question filler are skipped, and direct matches are
// preferred over relaxed ones at every length.
func (g *EvidenceGenerator) matchAt(toks []string, i int) (TokenEvidence, int) {
	if g.stop[toks[i]] {
		// "caused by"/"treated by" start with verbs, never with filler, so
		// skipping here is safe for the phrase lexicon too.
		return TokenEvidence{}, 0
	}
	// Try spans longest-first, up to 5 tokens, direct evidence only.
	longest := min(5, len(toks)-i)
	for n := longest; n >= 1; n-- {
		span := g.spanAt(toks, i, n)
		if span == "" {
			continue
		}
		evs := g.directEvidencesFor(span)
		if len(evs) > 0 {
			return TokenEvidence{Span: span, Evidences: evs}, n
		}
	}
	// Relaxation fallback for short unknown spans: take the longest span
	// (up to 3 tokens) that ends before a stopword.
	for n := min(3, longest); n >= 1; n-- {
		span := g.spanAt(toks, i, n)
		if span == "" {
			continue
		}
		evs := g.relaxedEvidencesFor(span)
		if len(evs) > 0 {
			return TokenEvidence{Span: span, Evidences: evs}, n
		}
	}
	return TokenEvidence{}, 0
}

// spanAt joins n tokens starting at i, rejecting spans that contain a
// stopword (mentions do not straddle question filler).
func (g *EvidenceGenerator) spanAt(toks []string, i, n int) string {
	for j := i; j < i+n; j++ {
		// The first token was already checked; "by" inside "caused by" is
		// allowed through the phrase lexicon check below.
		if j > i && g.stop[toks[j]] && !g.knownPhrase(strings.Join(toks[i:i+n], " ")) {
			return ""
		}
	}
	return strings.Join(toks[i:i+n], " ")
}

func (g *EvidenceGenerator) knownPhrase(span string) bool {
	if _, ok := g.relPhrases[span]; ok {
		return true
	}
	if _, ok := g.conceptLex[span]; ok {
		return true
	}
	_, ok := g.relLex[span]
	return ok
}

// directEvidencesFor collects every direct evidence for a span: metadata
// (concepts, relationships, colloquial relationship phrasings) and exact KB
// data values. Per the paper, a token's evidence is metadata or data-value
// but never both, with metadata taking precedence; duplicates are removed.
func (g *EvidenceGenerator) directEvidencesFor(span string) []Evidence {
	var out []Evidence
	seen := map[string]bool{}
	add := func(e Evidence) {
		key := fmt.Sprintf("%d|%s|%s", e.Kind, e.Concept, e.Relationship)
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	if concept, ok := g.conceptLex[span]; ok {
		add(Evidence{Kind: Metadata, Span: span, Concept: concept, Score: 1})
	}
	if rels, ok := g.relLex[span]; ok {
		for _, r := range rels {
			add(Evidence{Kind: Metadata, Span: span, Concept: r.Domain, Relationship: r.Name, Score: 1})
		}
	}
	if target, ok := g.relPhrases[span]; ok {
		if g.onto.HasConcept(target) {
			add(Evidence{Kind: Metadata, Span: span, Concept: target, Score: 1})
		} else {
			for _, r := range g.onto.Relationships() {
				if r.Name == target {
					add(Evidence{Kind: Metadata, Span: span, Concept: r.Domain, Relationship: r.Name, Score: 1})
				}
			}
		}
	}
	if len(out) > 0 {
		return out
	}
	// Data values.
	if ids := g.store.LookupName(span); len(ids) > 0 {
		byConcept := map[string][]kb.InstanceID{}
		for _, id := range ids {
			inst, _ := g.store.Instance(id)
			byConcept[inst.Concept] = append(byConcept[inst.Concept], id)
		}
		var concepts []string
		for c := range byConcept {
			concepts = append(concepts, c)
		}
		sort.Strings(concepts)
		for _, c := range concepts {
			out = append(out, Evidence{Kind: DataValue, Span: span, Concept: c, Instances: byConcept[c], Score: 1})
		}
	}
	return out
}

// relaxedEvidencesFor asks the relaxer for semantically related KB
// instances of an unknown span (the "pyelectasia" path of Figure 9).
func (g *EvidenceGenerator) relaxedEvidencesFor(span string) []Evidence {
	if g.relaxer == nil || g.ing == nil {
		return nil
	}
	results, err := g.relaxer.RelaxTerm(span, nil, 0)
	if err != nil {
		return nil
	}
	var out []Evidence
	for _, r := range results {
		if len(out) >= 5 {
			break
		}
		for _, iid := range r.Instances {
			inst, ok := g.store.Instance(iid)
			if !ok {
				continue
			}
			out = append(out, Evidence{
				Kind: DataValue, Span: span, Concept: inst.Concept,
				Instances: []kb.InstanceID{iid}, Score: r.Score, Relaxed: true,
			})
		}
	}
	return out
}
