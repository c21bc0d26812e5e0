package corpus

import (
	"maps"
	"strings"

	"medrelax/internal/stringutil"
)

// The count CountPhrasesN had before it read a sorted key column: every
// phrase tokenized and joined again, every phrase keyed with an empty TF
// map, and at each token the longest window of at most the longest phrase's
// length that joins to a phrase. Kept as the oracle of FuzzCountPhrases.
func (c *Corpus) oracleCountPhrases(phrases []string) map[string]TermStats {
	set, maxLen := map[string]bool{}, 0
	for _, p := range phrases {
		if toks := stringutil.Tokenize(p); len(toks) > 0 {
			set[strings.Join(toks, " ")] = true
			maxLen = max(maxLen, len(toks))
		}
	}
	out := make(map[string]TermStats, len(set))
	for p := range set {
		out[p] = TermStats{TF: make(map[string]int)}
	}
	for di, doc := range c.tokenized {
		seenInDoc := map[string]bool{}
		for si, toks := range doc {
			label := c.docs[di].Sections[si].Label
			for i := 0; i < len(toks); {
				n := min(maxLen, len(toks)-i)
				for n > 0 && !set[strings.Join(toks[i:i+n], " ")] {
					n--
				}
				if n == 0 {
					i++
					continue
				}
				match := strings.Join(toks[i:i+n], " ")
				st := out[match]
				st.TF[label]++
				st.TotalTF++
				if !seenInDoc[match] {
					seenInDoc[match] = true
					st.DF++
				}
				out[match] = st
				i += n
			}
		}
	}
	return out
}

// sameStats is TermStats map equality with a nil TF equal to an empty one.
func sameStats(a, b map[string]TermStats) bool {
	return maps.EqualFunc(a, b, func(x, y TermStats) bool {
		return x.TotalTF == y.TotalTF && x.DF == y.DF && maps.Equal(x.TF, y.TF)
	})
}
