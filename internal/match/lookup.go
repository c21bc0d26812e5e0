package match

import (
	"slices"
	"sort"
	"strings"

	"medrelax/internal/eks"
	"medrelax/internal/stringutil"
)

// LookupService is the "more sophisticated lookup service" the paper notes
// several knowledge sources offer (Section 3: SNOMED CT's browser,
// DrugBank, DBpedia Lookup): a ranked, typo- and word-order-tolerant name
// search over the external knowledge source, usable both as a Mapper and
// as an interactive search backend.
//
// The implementation is an inverted token index over the graph's own sorted
// name-key column — the index holds positions in it, never copies of the
// keys — with a blended score:
// exact-phrase and synonym hits dominate, then token-overlap (Jaccard)
// with a prefix bonus for the kind of incremental lookups a browser makes,
// and finally a small popularity prior (descendant count) as a tie-breaker
// the way public lookup services rank head entities first.
type LookupService struct {
	graph *eks.Graph
	// keys, keyOff and keyIDs are the graph's own name index — the sorted
	// normalized keys and each key's concepts — shared with the graph, not
	// copied; ids is its ascending concept column.
	keys   []string
	keyOff []int32
	keyIDs []eks.ConceptID
	ids    []eks.ConceptID
	// tokenID numbers the distinct tokens of the keys; the keys containing
	// token t are tokKeys[tokOff[t]:tokOff[t+1]], as ascending positions in
	// keys.
	tokenID map[string]int32
	tokOff  []int32
	tokKeys []int32
	// desc is every concept's descendant count, parallel to ids; a concept's
	// popularity prior is its share of maxDesc, in [0, 1].
	desc    []int32
	maxDesc int
	// MinScore is the acceptance threshold for Map. Default 0.5.
	MinScore float64
}

// LookupHit is one ranked search result.
type LookupHit struct {
	Concept eks.ConceptID
	Name    string // the matched surface form (preferred name or synonym)
	Score   float64
}

// NewLookupService indexes the graph's full lexicon.
func NewLookupService(g *eks.Graph) *LookupService {
	fd := g.FlatData()
	s := &LookupService{
		graph:    g,
		keys:     fd.NameKeys,
		keyOff:   fd.KeyOff,
		keyIDs:   fd.KeyIDs,
		ids:      fd.IDs,
		tokenID:  map[string]int32{},
		desc:     g.DescendantCounts(),
		maxDesc:  1,
		MinScore: 0.5,
	}
	// One pass over the keys numbers the tokens and lists the (token, key)
	// occurrences, a key's repeated token once; a counting sort by token then
	// lays them out as the CSR index, each token's keys still ascending.
	var occTok, occKey []int32
	var counts []int32
	for i, key := range s.keys {
		toks := stringutil.Tokenize(key)
		for j, tok := range toks {
			if slices.Contains(toks[:j], tok) {
				continue
			}
			t, ok := s.tokenID[tok]
			if !ok {
				t = int32(len(counts))
				s.tokenID[tok] = t
				counts = append(counts, 0)
			}
			counts[t]++
			occTok, occKey = append(occTok, t), append(occKey, int32(i))
		}
	}
	s.tokOff = make([]int32, len(counts)+1)
	for t, n := range counts {
		s.tokOff[t+1] = s.tokOff[t] + n
	}
	s.tokKeys = make([]int32, len(occKey))
	next := slices.Clone(s.tokOff[:len(counts)])
	for o, t := range occTok {
		s.tokKeys[next[t]] = occKey[o]
		next[t]++
	}
	for _, d := range s.desc {
		s.maxDesc = max(s.maxDesc, int(d))
	}
	return s
}

// keysWith returns the positions of the keys containing a token.
func (s *LookupService) keysWith(t int32) []int32 {
	return s.tokKeys[s.tokOff[t]:s.tokOff[t+1]]
}

// popularity is a concept's prior: its descendant count as a share of the
// largest.
func (s *LookupService) popularity(id eks.ConceptID) float64 {
	node, _ := slices.BinarySearch(s.ids, id)
	return float64(s.desc[node]) / float64(s.maxDesc)
}

// Search returns up to limit ranked hits for a free-text query. An empty
// query returns nil.
func (s *LookupService) Search(query string, limit int) []LookupHit {
	norm := stringutil.Normalize(query)
	if norm == "" || limit <= 0 {
		return nil
	}
	qTokens := stringutil.Tokenize(norm)

	// Candidate keys: any key sharing a token, or containing a token that
	// starts with a query token (prefix search).
	var candidates []int32
	for _, qt := range qTokens {
		if t, ok := s.tokenID[qt]; ok {
			candidates = append(candidates, s.keysWith(t)...)
		}
		// Prefix expansion for the last token (incremental typing).
		if qt == qTokens[len(qTokens)-1] && len(qt) >= 3 {
			for tok, t := range s.tokenID {
				if strings.HasPrefix(tok, qt) {
					candidates = append(candidates, s.keysWith(t)...)
				}
			}
		}
	}
	slices.Sort(candidates)
	candidates = slices.Compact(candidates)

	var hits []LookupHit
	for _, i := range candidates {
		key := s.keys[i]
		score := s.score(norm, qTokens, key)
		if score <= 0 {
			continue
		}
		for _, id := range s.keyIDs[s.keyOff[i]:s.keyOff[i+1]] {
			hits = append(hits, LookupHit{Concept: id, Name: key, Score: score + 0.05*s.popularity(id)})
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
func (s *LookupService) score(norm string, qTokens []string, key string) float64 {
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

// Name implements Mapper.
func (s *LookupService) Name() string { return "LOOKUP" }

// Map implements Mapper: the best hit wins when it clears MinScore.
func (s *LookupService) Map(name string) (eks.ConceptID, bool) {
	hits := s.Search(name, 1)
	if len(hits) == 0 || hits[0].Score < s.MinScore {
		return 0, false
	}
	return hits[0].Concept, true
}
