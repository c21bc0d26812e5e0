// Package corpus models the document corpus a medical knowledge base is
// curated from (Section 5.1 of the paper): a set of documents — in MED's
// case, drug monographs — whose sections carry context labels such as
// "Indication-hasFinding-Finding" (an *Indications* section) or
// "Risk-hasFinding-Finding" (an *Adverse Reactions* section).
//
// The package supplies the statistics the relaxation core needs: per-context
// term frequencies for multi-word concept names, document frequencies for
// the tf-idf adjustment, and raw token streams for embedding training.
package corpus

import (
	"math"
	"strings"
	"sync"

	"medrelax/internal/stringutil"
)

// Section is a contiguous piece of document text carrying a context label.
// An empty Label means general, context-free text.
type Section struct {
	Label string
	Text  string
}

// Document is a corpus document, e.g. one drug monograph.
type Document struct {
	ID       string
	Title    string
	Sections []Section
}

// Corpus is an immutable collection of documents with tokenization cached.
type Corpus struct {
	docs []Document
	// tokenized[i][j] is the token stream of section j of document i.
	tokenized [][][]string
}

// New builds a corpus over the given documents, tokenizing each section
// once.
func New(docs []Document) *Corpus {
	c := &Corpus{docs: docs, tokenized: make([][][]string, len(docs))}
	for i, d := range docs {
		c.tokenized[i] = make([][]string, len(d.Sections))
		for j, s := range d.Sections {
			c.tokenized[i][j] = stringutil.Tokenize(s.Text)
		}
	}
	return c
}

// DocCount returns the number of documents.
func (c *Corpus) DocCount() int { return len(c.docs) }

// Documents returns the underlying documents. Callers must not mutate the
// result.
func (c *Corpus) Documents() []Document { return c.docs }

// TokenStreams returns one token stream per section across all documents,
// in document order. Embedding training treats each stream as one text.
func (c *Corpus) TokenStreams() [][]string {
	var out [][]string
	for _, doc := range c.tokenized {
		for _, sec := range doc {
			if len(sec) > 0 {
				out = append(out, sec)
			}
		}
	}
	return out
}

// TokenCount returns the total number of tokens in the corpus.
func (c *Corpus) TokenCount() int {
	n := 0
	for _, doc := range c.tokenized {
		for _, sec := range doc {
			n += len(sec)
		}
	}
	return n
}

// TermStats aggregates the occurrence statistics of one phrase.
type TermStats struct {
	// TF maps a section label to the number of occurrences of the phrase
	// inside sections with that label, across the whole corpus. It is nil
	// for a phrase that never occurs.
	TF map[string]int
	// TotalTF is the number of occurrences regardless of label.
	TotalTF int
	// DF is the number of distinct documents containing the phrase.
	DF int
}

// phraseSet indexes a set of normalized multi-word phrases for greedy
// longest-match scanning.
type phraseSet struct {
	phrases  map[string]bool // full phrases, joined by spaces
	prefixes map[string]bool // all proper prefixes, joined by spaces
	maxLen   int             // longest phrase, in tokens
}

// newPhraseSet indexes each phrase by its Normalize form — the phrase itself
// when it is already normal, as nearly every lexicon name is — whose tokens
// are joined by single spaces, so its proper prefixes are sliced out of it at
// its spaces rather than tokenized and joined again.
func newPhraseSet(phrases []string) *phraseSet {
	ps := &phraseSet{phrases: make(map[string]bool, len(phrases)), prefixes: make(map[string]bool, len(phrases))}
	for _, p := range phrases {
		norm := stringutil.Normalize(p)
		if norm == "" {
			continue
		}
		ps.phrases[norm] = true
		toks := 1
		for i := 0; i < len(norm); i++ {
			if norm[i] == ' ' {
				ps.prefixes[norm[:i]] = true
				toks++
			}
		}
		ps.maxLen = max(ps.maxLen, toks)
	}
	return ps
}

// CountPhrases scans the corpus for every phrase and returns per-phrase
// statistics, keyed by the phrase's normalized form. Matching is greedy
// longest-match over token windows: overlapping shorter phrases inside a
// longer matched phrase are not counted, mirroring how an annotator counts
// concept mentions.
func (c *Corpus) CountPhrases(phrases []string) map[string]TermStats {
	return c.CountPhrasesN(phrases, 1)
}

// CountPhrasesN is CountPhrases sharded over workers goroutines: the
// documents are partitioned into contiguous ranges, each range is scanned
// independently against the shared (read-only) phrase index, and the
// per-shard statistics are merged. All statistics are integer sums over
// disjoint document sets — TF and TotalTF sum occurrences, DF counts
// distinct documents, each of which lives in exactly one shard — so the
// result is identical to the serial scan for any worker count. workers <= 1
// runs the serial scan.
func (c *Corpus) CountPhrasesN(phrases []string, workers int) map[string]TermStats {
	ps := newPhraseSet(phrases)
	out := make(map[string]TermStats, len(ps.phrases))
	for p := range ps.phrases {
		out[p] = TermStats{}
	}
	if ps.maxLen == 0 {
		return out
	}
	if workers > len(c.docs) {
		workers = len(c.docs)
	}
	if workers <= 1 {
		c.countRange(ps, 0, len(c.docs), out)
		return out
	}
	shards := make([]map[string]TermStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(c.docs) / workers
		hi := (w + 1) * len(c.docs) / workers
		shard := make(map[string]TermStats)
		shards[w] = shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.countRange(ps, lo, hi, shard)
		}()
	}
	wg.Wait()
	for _, shard := range shards {
		for p, st := range shard {
			agg := out[p]
			agg.TotalTF += st.TotalTF
			agg.DF += st.DF
			if agg.TF == nil {
				agg.TF = make(map[string]int, len(st.TF))
			}
			for label, tf := range st.TF {
				agg.TF[label] += tf
			}
			out[p] = agg
		}
	}
	return out
}

// countRange scans documents [lo, hi) and accumulates statistics into out.
// A phrase's TF map is made on its first occurrence.
func (c *Corpus) countRange(ps *phraseSet, lo, hi int, out map[string]TermStats) {
	for di := lo; di < hi; di++ {
		doc := c.tokenized[di]
		seenInDoc := map[string]bool{}
		for si, toks := range doc {
			label := c.docs[di].Sections[si].Label
			for i := 0; i < len(toks); {
				match, matchLen := ps.longestMatchAt(toks, i)
				if matchLen == 0 {
					i++
					continue
				}
				st := out[match]
				if st.TF == nil {
					st.TF = make(map[string]int)
				}
				st.TF[label]++
				st.TotalTF++
				if !seenInDoc[match] {
					seenInDoc[match] = true
					st.DF++
				}
				out[match] = st
				i += matchLen
			}
		}
	}
}

// longestMatchAt returns the longest phrase starting at toks[i], and its
// token length, or ("", 0).
func (ps *phraseSet) longestMatchAt(toks []string, i int) (string, int) {
	var b strings.Builder
	bestLen := 0
	best := ""
	limit := i + ps.maxLen
	if limit > len(toks) {
		limit = len(toks)
	}
	for j := i; j < limit; j++ {
		if j > i {
			b.WriteByte(' ')
		}
		b.WriteString(toks[j])
		cur := b.String()
		if ps.phrases[cur] {
			best = cur
			bestLen = j - i + 1
		}
		if !ps.prefixes[cur] && !ps.phrases[cur] {
			break
		}
	}
	return best, bestLen
}

// IDF returns the inverse document frequency for a term with document
// frequency df over a corpus of n documents, using the smoothed form
// log((1+n)/(1+df)) + 1 so that terms present in every document still get
// positive weight and unseen terms do not divide by zero.
func IDF(df, n int) float64 {
	return math.Log(float64(1+n)/float64(1+df)) + 1
}

// WordFrequencies returns the relative frequency of every token in the
// corpus, for use by SIF-weighted phrase embeddings. Frequencies sum to 1
// over the vocabulary (when the corpus is non-empty).
func (c *Corpus) WordFrequencies() map[string]float64 {
	counts := make(map[string]int)
	total := 0
	for _, doc := range c.tokenized {
		for _, sec := range doc {
			for _, tok := range sec {
				counts[tok]++
				total++
			}
		}
	}
	out := make(map[string]float64, len(counts))
	if total == 0 {
		return out
	}
	for tok, n := range counts {
		out[tok] = float64(n) / float64(total)
	}
	return out
}

// Labels returns the distinct section labels present in the corpus,
// excluding the empty general label.
func (c *Corpus) Labels() []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range c.docs {
		for _, s := range d.Sections {
			if s.Label != "" && !seen[s.Label] {
				seen[s.Label] = true
				out = append(out, s.Label)
			}
		}
	}
	return out
}
