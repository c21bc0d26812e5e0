package dialog

import (
	"strings"

	"medrelax/internal/kb"
	"medrelax/internal/stringutil"
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
// lexicon assembled from the KB instance names plus any extra vocabulary
// (typically the external knowledge source's concept names, so that terms
// absent from the KB are still recognized as mentions and can be relaxed —
// the "pyelectasia" case of Figure 7).
type MentionExtractor struct {
	store    *kb.Store
	phrases  map[string]bool
	prefixes map[string]bool
	maxLen   int
	// stop contains tokens that never begin a mention, keeping template
	// words like "drugs" from being swallowed.
	stop map[string]bool
}

// NewMentionExtractor indexes the store's lexicon together with the extra
// vocabulary terms.
func NewMentionExtractor(store *kb.Store, extraVocabulary []string) *MentionExtractor {
	e := &MentionExtractor{
		store:    store,
		phrases:  map[string]bool{},
		prefixes: map[string]bool{},
		stop: map[string]bool{
			"drug": true, "drugs": true, "medication": true, "treatment": true,
			"what": true, "which": true, "the": true, "of": true, "for": true,
			"risk": true, "risks": true, "side": true, "effect": true, "effects": true,
		},
	}
	add := func(name string) {
		toks := stringutil.Tokenize(name)
		if len(toks) == 0 || e.stop[toks[0]] {
			return
		}
		e.phrases[strings.Join(toks, " ")] = true
		if len(toks) > e.maxLen {
			e.maxLen = len(toks)
		}
		for i := 1; i < len(toks); i++ {
			e.prefixes[strings.Join(toks[:i], " ")] = true
		}
	}
	for _, key := range store.LexiconKeys() {
		add(key)
	}
	for _, v := range extraVocabulary {
		add(v)
	}
	return e
}

// Extract returns the mentions of the utterance in reading order. When the
// lexicon yields nothing, a pattern fallback takes the trailing phrase
// after a question frame ("what drugs treat X" → X) as an unknown mention,
// the way an NLU entity extractor surfaces novel entity spans — this is
// what lets truly unknown terminology reach the relaxation method at all.
func (e *MentionExtractor) Extract(text string) []Mention {
	toks := stringutil.Tokenize(text)
	var out []Mention
	for i := 0; i < len(toks); {
		match, n := e.longestMatchAt(toks, i)
		if n == 0 {
			i++
			continue
		}
		m := Mention{Text: match}
		m.Instances = append(m.Instances, e.store.LookupName(match)...) // ascending
		out = append(out, m)
		i += n
	}
	if len(out) == 0 {
		if tail, ok := e.questionTail(toks); ok {
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
func (e *MentionExtractor) questionTail(toks []string) (string, bool) {
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
		if e.stop[tok] {
			continue
		}
		tail = append(tail, tok)
	}
	if len(tail) == 0 {
		return "", false
	}
	return strings.Join(tail, " "), true
}

func (e *MentionExtractor) longestMatchAt(toks []string, i int) (string, int) {
	if e.stop[toks[i]] {
		return "", 0
	}
	var b strings.Builder
	best, bestLen := "", 0
	limit := i + e.maxLen
	if limit > len(toks) {
		limit = len(toks)
	}
	for j := i; j < limit; j++ {
		if j > i {
			b.WriteByte(' ')
		}
		b.WriteString(toks[j])
		cur := b.String()
		if e.phrases[cur] {
			best, bestLen = cur, j-i+1
		}
		if !e.prefixes[cur] && !e.phrases[cur] {
			break
		}
	}
	return best, bestLen
}
