package match

import (
	"fmt"
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
//
// The index is frozen columns (FlatLookupData), tokenised and sorted by
// NewLookupService or adopted from a flat bundle by OpenFlatLookup after the
// same validator; every read runs on them either way.
type LookupService struct {
	graph *eks.Graph
	// keys, keyOff and keyIDs are the graph's own name index — the sorted
	// normalized keys and each key's concepts — shared with the graph, not
	// copied; ids is its ascending concept column.
	keys   []string
	keyOff []int32
	keyIDs []eks.ConceptID
	ids    []eks.ConceptID
	d      FlatLookupData
	// A concept's popularity prior is its descendant count as a share of
	// maxDesc, in [0, 1].
	maxDesc int
	// MinScore is the acceptance threshold for Map. Default 0.5.
	MinScore float64
}

// FlatLookupData is the column layout of a LookupService over a graph, which
// is also the layout of the resolver sections of a flat (v4) bundle. Slices
// handed to OpenFlatLookup may alias a memory mapping; they are never
// mutated.
type FlatLookupData struct {
	// Tokens are the distinct tokens of the graph's name keys, strictly
	// ascending: a token's id is its position, finding one is a binary
	// search, and the tokens a prefix expands to are a contiguous run.
	Tokens []string
	// The keys containing token t are TokKeys[TokOff[t]:TokOff[t+1]], as
	// ascending positions in the graph's NameKeys.
	TokOff  []int32 // len(Tokens)+1
	TokKeys []int32
	// Desc is every concept's descendant count, parallel to the graph's IDs.
	Desc []int32
	// KeySigs is every name key's letter-set signature (keySignature),
	// parallel to the graph's NameKeys: what Edit skips keys by.
	KeySigs []uint64
}

// LookupHit is one ranked search result.
type LookupHit struct {
	Concept eks.ConceptID
	Name    string // the matched surface form (preferred name or synonym)
	Score   float64
}

// NewLookupService indexes the graph's full lexicon.
func NewLookupService(g *eks.Graph) *LookupService {
	keys := g.FlatData().NameKeys
	// One pass over the keys numbers the tokens as they first appear and
	// lists the (token, key) occurrences, a key's repeated token once.
	firstSeen := map[string]int32{}
	var tokens []string
	var occTok, occKey, counts []int32
	for i, key := range keys {
		toks := stringutil.Tokenize(key)
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
	d := FlatLookupData{
		Tokens:  make([]string, len(tokens)),
		TokOff:  make([]int32, len(tokens)+1),
		TokKeys: make([]int32, len(occKey)),
		Desc:    g.DescendantCounts(),
		KeySigs: keySignatures(keys),
	}
	rank := make([]int32, len(tokens))
	for pos, t := range order {
		rank[t] = int32(pos)
		d.Tokens[pos] = tokens[t]
		d.TokOff[pos+1] = d.TokOff[pos] + counts[t]
	}
	next := slices.Clone(d.TokOff[:len(tokens)])
	for o, t := range occTok {
		pos := rank[t]
		d.TokKeys[next[pos]] = occKey[o]
		next[pos]++
	}
	return newLookupService(g, d)
}

// OpenFlatLookup adopts resolver columns as a LookupService over g,
// enforcing the invariants Search and Edit rely on: the token CSR's shape,
// tokens non-empty and strictly ascending, every token's key span non-empty,
// strictly ascending and inside the graph's name keys, one non-negative
// descendant count per concept and one signature per key.
func OpenFlatLookup(g *eks.Graph, d FlatLookupData) (*LookupService, error) {
	fd := g.FlatData()
	n := len(d.Tokens)
	if len(d.TokOff) != n+1 || d.TokOff[0] != 0 || int(d.TokOff[n]) != len(d.TokKeys) {
		return nil, fmt.Errorf("match: lookup token offsets (%d for %d tokens) do not span the %d postings", len(d.TokOff), n, len(d.TokKeys))
	}
	for t, tok := range d.Tokens {
		if tok == "" || (t > 0 && tok <= d.Tokens[t-1]) {
			return nil, fmt.Errorf("match: lookup tokens empty or not strictly ascending at %d", t)
		}
		lo, hi := d.TokOff[t], d.TokOff[t+1]
		if lo >= hi || int(hi) > len(d.TokKeys) {
			return nil, fmt.Errorf("match: lookup token %q has the posting span [%d, %d)", tok, lo, hi)
		}
		prev := int32(-1)
		for _, key := range d.TokKeys[lo:hi] {
			if key <= prev || int(key) >= len(fd.NameKeys) {
				return nil, fmt.Errorf("match: lookup token %q lists key %d after %d of %d", tok, key, prev, len(fd.NameKeys))
			}
			prev = key
		}
	}
	if len(d.Desc) != len(fd.IDs) {
		return nil, fmt.Errorf("match: %d descendant counts for %d concepts", len(d.Desc), len(fd.IDs))
	}
	if i := slices.IndexFunc(d.Desc, func(c int32) bool { return c < 0 }); i >= 0 {
		return nil, fmt.Errorf("match: negative descendant count at concept %d", fd.IDs[i])
	}
	if len(d.KeySigs) != len(fd.NameKeys) {
		return nil, fmt.Errorf("match: %d key signatures for %d name keys", len(d.KeySigs), len(fd.NameKeys))
	}
	return newLookupService(g, d), nil
}

func newLookupService(g *eks.Graph, d FlatLookupData) *LookupService {
	fd := g.FlatData()
	s := &LookupService{
		graph:    g,
		keys:     fd.NameKeys,
		keyOff:   fd.KeyOff,
		keyIDs:   fd.KeyIDs,
		ids:      fd.IDs,
		d:        d,
		maxDesc:  1,
		MinScore: 0.5,
	}
	for _, c := range d.Desc {
		s.maxDesc = max(s.maxDesc, int(c))
	}
	return s
}

// FlatData returns the service's columns, the form a flat bundle stores. The
// slices alias the service and must not be modified.
func (s *LookupService) FlatData() FlatLookupData { return s.d }

// Edit returns an edit-distance matcher over the service's graph that shares
// its key signatures instead of deriving them again (DefaultEditThreshold
// when threshold <= 0).
func (s *LookupService) Edit(threshold int) *Edit {
	return newEdit(s.graph, threshold, s.d.KeySigs)
}

// popularity is a concept's prior: its descendant count as a share of the
// largest.
func (s *LookupService) popularity(id eks.ConceptID) float64 {
	node, _ := slices.BinarySearch(s.ids, id)
	return float64(s.d.Desc[node]) / float64(s.maxDesc)
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
		lo, found := slices.BinarySearch(s.d.Tokens, qt)
		hi := lo
		if found {
			hi++
		}
		if qt == qTokens[len(qTokens)-1] && len(qt) >= 3 {
			for hi < len(s.d.Tokens) && strings.HasPrefix(s.d.Tokens[hi], qt) {
				hi++
			}
		}
		candidates = append(candidates, s.d.TokKeys[s.d.TokOff[lo]:s.d.TokOff[hi]]...)
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
