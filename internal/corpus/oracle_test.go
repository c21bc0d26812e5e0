package corpus

import (
	"maps"
	"strings"

	"medrelax/internal/stringutil"
)

// The phrase index and scan CountPhrasesN had before it read each phrase's
// Normalize form: every phrase, and every prefix of it, tokenized and joined
// again, and every phrase keyed with an empty TF map. Kept as the oracle of
// FuzzCountPhrases.

func oraclePhraseSet(phrases []string) *phraseSet {
	ps := &phraseSet{phrases: make(map[string]bool), prefixes: make(map[string]bool)}
	for _, p := range phrases {
		toks := stringutil.Tokenize(p)
		if len(toks) == 0 {
			continue
		}
		ps.phrases[strings.Join(toks, " ")] = true
		if len(toks) > ps.maxLen {
			ps.maxLen = len(toks)
		}
		for i := 1; i < len(toks); i++ {
			ps.prefixes[strings.Join(toks[:i], " ")] = true
		}
	}
	return ps
}

func (c *Corpus) oracleCountPhrases(phrases []string) map[string]TermStats {
	ps := oraclePhraseSet(phrases)
	out := make(map[string]TermStats, len(ps.phrases))
	for p := range ps.phrases {
		out[p] = TermStats{TF: make(map[string]int)}
	}
	if ps.maxLen > 0 {
		c.countRange(ps, 0, len(c.docs), out)
	}
	return out
}

// sameStats is TermStats map equality with a nil TF equal to an empty one.
func sameStats(a, b map[string]TermStats) bool {
	return maps.EqualFunc(a, b, func(x, y TermStats) bool {
		return x.TotalTF == y.TotalTF && x.DF == y.DF && maps.Equal(x.TF, y.TF)
	})
}
