package dialog

import (
	"strings"

	"medrelax/internal/kb"
	"medrelax/internal/stringutil"
	"medrelax/internal/strtab"
)

// Mention is an entity mention extracted from an utterance.
type Mention struct {
	// Text is the normalized surface form as matched.
	Text string
	// Instances are the KB instances whose name matches exactly, empty when
	// the mention is unknown to the KB.
	Instances []kb.InstanceID
}

// Known reports whether the mention resolved to KB instances.
func (m Mention) Known() bool { return len(m.Instances) > 0 }

// MentionExtractor finds entity mentions by greedy longest-match over a
// lexicon of the KB instance names plus the external knowledge source's
// concept names, so that terms absent from the KB are still recognized as
// mentions and can be relaxed — the "pyelectasia" case of Figure 7. Both
// halves are sorted key columns read in place; the extractor copies neither.
type MentionExtractor struct {
	store     *kb.Store
	instances strtab.Column // the store's instance-name keys
	names     strtab.Column // the concept-name keys
}

// stopWords never begin a mention, keeping template words like "drugs" from
// being swallowed.
var stopWords = map[string]bool{
	"drug": true, "drugs": true, "medication": true, "treatment": true,
	"what": true, "which": true, "the": true, "of": true, "for": true,
	"risk": true, "risks": true, "side": true, "effect": true, "effects": true,
}

// NewMentionExtractor matches over the store's lexicon and names, a column
// of concept-name keys (Normalize forms, ascending and unique, as a frozen
// graph's FlatData().NameKeys); it builds nothing.
func NewMentionExtractor(store *kb.Store, names strtab.Column) *MentionExtractor {
	return &MentionExtractor{store: store, instances: store.FlatData().LexKeys, names: names}
}

// Extract returns the mentions of the utterance in reading order: at each
// token that is not a stop word, the longer of the longest instance name
// and the longest concept name the tokens from there join to. When the
// lexicon yields nothing, a pattern fallback takes the trailing phrase
// after a question frame ("what drugs treat X" → X) as an unknown mention,
// the way an NLU entity extractor surfaces novel entity spans — this is
// what lets truly unknown terminology reach the relaxation method at all.
func (e *MentionExtractor) Extract(text string) []Mention {
	toks := stringutil.Tokenize(text)
	var out []Mention
	var buf []byte
	for i := 0; i < len(toks); {
		var n, byName int
		if !stopWords[toks[i]] {
			_, n, buf = stringutil.LongestKeyAt(e.instances, toks, i, buf)
			_, byName, buf = stringutil.LongestKeyAt(e.names, toks, i, buf)
		}
		n = max(n, byName)
		if n == 0 {
			i++
			continue
		}
		// Joined anew: a mention outlives the columns, which may alias a
		// mapped bundle.
		m := Mention{Text: strings.Join(toks[i:i+n], " ")}
		m.Instances = append(m.Instances, e.store.LookupName(m.Text)...) // ascending
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

// questionFrames are verbs that introduce the entity span of a question.
var questionFrames = map[string]bool{
	"treat": true, "treats": true, "cause": true, "causes": true,
	"causing": true, "about": true, "with": true, "against": true, "cure": true,
}

// questionTail returns the phrase after the last question-frame token,
// stripped of stopwords, or ok=false when no frame is present or the tail
// is empty.
func questionTail(toks []string) (string, bool) {
	last := -1
	for i, tok := range toks {
		if questionFrames[tok] {
			last = i
		}
	}
	if last < 0 || last+1 >= len(toks) {
		return "", false
	}
	var tail []string
	for _, tok := range toks[last+1:] {
		if stopWords[tok] {
			continue
		}
		tail = append(tail, tok)
	}
	if len(tail) == 0 {
		return "", false
	}
	return strings.Join(tail, " "), true
}
