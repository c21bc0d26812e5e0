package match

import (
	"sort"
	"strings"

	"medrelax/internal/eks"
	"medrelax/internal/stringutil"
)

// legacyLookupService is LookupService as it was before its index moved onto
// the graph's name-key column — a map from token to key strings, a
// popularity map filled by one DescendantCount walk per concept — kept
// verbatim as the oracle of TestLookupServiceMatchesLegacy.
type legacyLookupService struct {
	graph *eks.Graph
	// byToken maps a token to the normalized name keys containing it.
	byToken map[string][]string
	// popularity is a per-concept prior in [0, 1].
	popularity map[eks.ConceptID]float64
	// MinScore is the acceptance threshold for Map. Default 0.5.
	MinScore float64
}

// newLegacyLookupService indexes the graph's full lexicon.
func newLegacyLookupService(g *eks.Graph) *legacyLookupService {
	s := &legacyLookupService{
		graph:      g,
		byToken:    map[string][]string{},
		popularity: map[eks.ConceptID]float64{},
		MinScore:   0.5,
	}
	for _, key := range g.NameKeys() {
		seen := map[string]bool{}
		for _, tok := range stringutil.Tokenize(key) {
			if !seen[tok] {
				seen[tok] = true
				s.byToken[tok] = append(s.byToken[tok], key)
			}
		}
	}
	// Popularity prior: log-ish scaling of descendant counts.
	maxDesc := 1
	descs := map[eks.ConceptID]int{}
	for _, id := range g.ConceptIDs() {
		d := g.DescendantCount(id)
		descs[id] = d
		if d > maxDesc {
			maxDesc = d
		}
	}
	for id, d := range descs {
		s.popularity[id] = float64(d) / float64(maxDesc)
	}
	return s
}

// Search returns up to limit ranked hits for a free-text query. An empty
// query returns nil.
func (s *legacyLookupService) Search(query string, limit int) []LookupHit {
	norm := stringutil.Normalize(query)
	if norm == "" || limit <= 0 {
		return nil
	}
	qTokens := stringutil.Tokenize(norm)

	// Candidate keys: any key sharing a token, or containing a token that
	// starts with a query token (prefix search).
	candidates := map[string]bool{}
	for _, qt := range qTokens {
		for _, key := range s.byToken[qt] {
			candidates[key] = true
		}
		// Prefix expansion for the last token (incremental typing).
		if qt == qTokens[len(qTokens)-1] && len(qt) >= 3 {
			for tok, keys := range s.byToken {
				if strings.HasPrefix(tok, qt) {
					for _, key := range keys {
						candidates[key] = true
					}
				}
			}
		}
	}

	var hits []LookupHit
	for key := range candidates {
		score := s.score(norm, qTokens, key)
		if score <= 0 {
			continue
		}
		// Resolved through the graph's own name index: a copy held here
		// would be a third of this service's memory at 10⁵ names.
		for _, id := range s.graph.IDsForNameKey(key) {
			hits = append(hits, LookupHit{Concept: id, Name: key, Score: score + 0.05*s.popularity[id]})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		if hits[i].Concept != hits[j].Concept {
			return hits[i].Concept < hits[j].Concept
		}
		return hits[i].Name < hits[j].Name
	})
	// Deduplicate by concept, keeping the best-scoring surface form.
	seen := map[eks.ConceptID]bool{}
	out := make([]LookupHit, 0, limit)
	for _, h := range hits {
		if seen[h.Concept] {
			continue
		}
		seen[h.Concept] = true
		out = append(out, h)
		if len(out) == limit {
			break
		}
	}
	return out
}

// score blends exactness, token overlap and prefix affinity into [0, ~1].
func (s *legacyLookupService) score(norm string, qTokens []string, key string) float64 {
	if key == norm {
		return 1
	}
	jac := stringutil.TokenJaccard(norm, key)
	score := 0.8 * jac
	// Prefix bonus: the key's last token extends the query's last token.
	kTokens := stringutil.Tokenize(key)
	if len(qTokens) > 0 && len(kTokens) > 0 {
		lastQ := qTokens[len(qTokens)-1]
		for _, kt := range kTokens {
			if kt != lastQ && strings.HasPrefix(kt, lastQ) {
				score += 0.15
				break
			}
		}
	}
	if score > 0.99 {
		score = 0.99 // only the exact phrase reaches 1
	}
	return score
}

// Map implements Mapper: the best hit wins when it clears MinScore.
func (s *legacyLookupService) Map(name string) (eks.ConceptID, bool) {
	hits := s.Search(name, 1)
	if len(hits) == 0 || hits[0].Score < s.MinScore {
		return 0, false
	}
	return hits[0].Concept, true
}

// legacyEditMap is Edit.Map as it was before the key signatures: every key
// inside the length filter goes to the banded DP. Kept verbatim as the oracle
// of TestEditSignaturesKeepAnswers.
func legacyEditMap(m *Edit, name string) (eks.ConceptID, bool) {
	if id, ok := (&Exact{graph: m.graph}).Map(name); ok {
		return id, ok
	}
	norm := stringutil.Normalize(name)
	if norm == "" {
		return 0, false
	}
	bestDist := m.threshold + 1
	var bestID eks.ConceptID
	found := false
	var band stringutil.EditBand
	band.Reset(norm)
	for _, key := range m.keys {
		if abs(len(key)-len(norm)) > m.threshold {
			continue
		}
		if !band.Within(key, bestDist-1) {
			continue
		}
		d := stringutil.Levenshtein(norm, key)
		ids := m.graph.IDsForNameKey(key)
		if len(ids) == 0 {
			continue
		}
		id := minID(ids)
		if d < bestDist || (d == bestDist && id < bestID) {
			bestDist = d
			bestID = id
			found = true
		}
	}
	return bestID, found
}
