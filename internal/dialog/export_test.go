package dialog

import (
	"slices"
	"strings"

	"medrelax/internal/kb"
	"medrelax/internal/stringutil"
)

// phraseIndex is the map-based greedy longest-match index the extractor
// built before it read the key columns in place: every phrase by its
// Normalize form, and every proper token prefix of one. Kept as the oracle
// of TestExtractMatchesPhraseIndexOracle.
type phraseIndex struct {
	phrases  map[string]bool
	prefixes map[string]bool
	maxLen   int
}

// oracleIndex indexes the store's lexicon together with the extra
// vocabulary, leaving out every name that begins with a stop word, as
// NewMentionExtractor did.
func oracleIndex(store *kb.Store, extraVocabulary []string) *phraseIndex {
	x := &phraseIndex{phrases: map[string]bool{}, prefixes: map[string]bool{}}
	for _, name := range slices.Concat(store.FlatData().LexKeys.Strings(), extraVocabulary) {
		norm := stringutil.Normalize(name)
		if first, _, _ := strings.Cut(norm, " "); norm == "" || stopWords[first] {
			continue
		}
		x.phrases[norm] = true
		toks := 1
		for i := 0; i < len(norm); i++ {
			if norm[i] == ' ' {
				x.prefixes[norm[:i]] = true
				toks++
			}
		}
		x.maxLen = max(x.maxLen, toks)
	}
	return x
}

// longestMatchAt returns the longest phrase starting at toks[i], and its
// token length, or ("", 0).
func (x *phraseIndex) longestMatchAt(toks []string, i int) (string, int) {
	var b strings.Builder
	best, bestLen := "", 0
	for j := i; j < min(i+x.maxLen, len(toks)); j++ {
		if j > i {
			b.WriteByte(' ')
		}
		b.WriteString(toks[j])
		cur := b.String()
		if x.phrases[cur] {
			best, bestLen = cur, j-i+1
		}
		if !x.prefixes[cur] && !x.phrases[cur] {
			break
		}
	}
	return best, bestLen
}

// oracleExtract is Extract over the oracle's index.
func (x *phraseIndex) oracleExtract(store *kb.Store, text string) []Mention {
	toks := stringutil.Tokenize(text)
	var out []Mention
	for i := 0; i < len(toks); {
		match, n := x.longestMatchAt(toks, i)
		if n == 0 {
			i++
			continue
		}
		m := Mention{Text: match}
		m.Instances = append(m.Instances, store.LookupName(match)...)
		out = append(out, m)
		i += n
	}
	if len(out) == 0 {
		if tail, ok := questionTail(toks); ok {
			out = append(out, Mention{Text: tail})
		}
	}
	return out
}
