package match

import (
	"slices"
	"sort"
	"strings"

	"medrelax/internal/eks"
	"medrelax/internal/stringutil"
	"medrelax/internal/strtab"
)

// LookupService is a ranked, word-order-tolerant name search over an
// external knowledge source, in the manner of the "more sophisticated lookup
// service" the paper notes several sources offer (Section 3: SNOMED CT's
// browser, DrugBank, DBpedia Lookup). No snapshot serves it: every snapshot
// maps query terms with the paper's EDIT (Edit). It stays because the
// benchmark's traced resolve layer assembles its own chain with it.
//
// The implementation is an inverted token index over the graph's own sorted
// name-key column — the index holds positions in it, never copies of the
// keys — with a blended score:
// exact-phrase and synonym hits dominate, then token-overlap (Jaccard)
// with a prefix bonus for the kind of incremental lookups a browser makes,
// and finally a small popularity prior (descendant count) as a tie-breaker
// the way public lookup services rank head entities first.
type LookupService struct {
	// keys, keyOff and keyIDs are the graph's own name index — the sorted
	// normalized keys and each key's concepts — shared with the graph, not
	// copied; ids is its ascending concept column.
	keys   strtab.Column
	keyOff []int32
	keyIDs []eks.ConceptID
	ids    []eks.ConceptID
	// tokens are the distinct tokens of the name keys, strictly ascending: a
	// token's id is its position, finding one is a binary search, and the
	// tokens a prefix expands to are a contiguous run. The keys containing
	// token t are tokKeys[tokOff[t]:tokOff[t+1]], as ascending positions in
	// keys.
	tokens  strtab.Column
	tokOff  []int32 // len(tokens)+1
	tokKeys []int32
	// desc is every concept's descendant count, parallel to ids; a concept's
	// popularity prior is its count as a share of maxDesc, in [0, 1].
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

// NewLookupService indexes the graph's full lexicon; bench/traced.go chains
// it after EXACT and EDIT.
func NewLookupService(g *eks.Graph) *LookupService { // bench contract
	fd := g.FlatData()
	keys := fd.NameKeys
	// One pass over the keys numbers the tokens as they first appear and
	// lists the (token, key) occurrences, a key's repeated token once.
	firstSeen := map[string]int32{}
	var tokens []string
	var occTok, occKey, counts []int32
	for i := range keys.Len() {
		toks := stringutil.Tokenize(keys.At(i))
		for j, tok := range toks {
			if slices.Contains(toks[:j], tok) {
				continue
			}
			t, ok := firstSeen[tok]
			if !ok {
				t = int32(len(tokens))
				firstSeen[tok] = t
				tokens = append(tokens, tok)
				counts = append(counts, 0)
			}
			counts[t]++
			occTok, occKey = append(occTok, t), append(occKey, int32(i))
		}
	}
	// A token's id is its rank in the sorted column; a counting sort by rank
	// then lays the occurrences out as the CSR index, each token's keys still
	// ascending.
	order := make([]int32, len(tokens))
	for t := range order {
		order[t] = int32(t)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(tokens[a], tokens[b]) })
	sorted := make([]string, len(tokens))
	s := &LookupService{
		keys:     keys,
		keyOff:   fd.KeyOff,
		keyIDs:   fd.KeyIDs,
		ids:      fd.IDs,
		tokOff:   make([]int32, len(tokens)+1),
		tokKeys:  make([]int32, len(occKey)),
		desc:     g.DescendantCounts(),
		maxDesc:  1,
		MinScore: 0.5,
	}
	rank := make([]int32, len(tokens))
	for pos, t := range order {
		rank[t] = int32(pos)
		sorted[pos] = tokens[t]
		s.tokOff[pos+1] = s.tokOff[pos] + counts[t]
	}
	s.tokens = strtab.Pack(sorted)
	next := slices.Clone(s.tokOff[:len(tokens)])
	for o, t := range occTok {
		pos := rank[t]
		s.tokKeys[next[pos]] = occKey[o]
		next[pos]++
	}
	for _, c := range s.desc {
		s.maxDesc = max(s.maxDesc, int(c))
	}
	return s
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
	// starts with the last query token (prefix expansion for incremental
	// typing). Tokens are sorted, so the tokens a prefix expands to — the
	// token itself first, when there is one — are a run from its lower bound,
	// and their keys one span of the CSR.
	var candidates []int32
	for _, qt := range qTokens {
		lo, found := s.tokens.Search(qt)
		hi := lo
		if found {
			hi++
		}
		if qt == qTokens[len(qTokens)-1] && len(qt) >= 3 {
			for hi < s.tokens.Len() && strings.HasPrefix(s.tokens.At(hi), qt) {
				hi++
			}
		}
		candidates = append(candidates, s.tokKeys[s.tokOff[lo]:s.tokOff[hi]]...)
	}
	slices.Sort(candidates)
	candidates = slices.Compact(candidates)
	var hits []LookupHit
	for _, i := range candidates {
		key := s.keys.At(int(i))
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
