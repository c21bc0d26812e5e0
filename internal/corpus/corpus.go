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
	"sync"

	"medrelax/internal/stringutil"
	"medrelax/internal/strtab"
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

// CountPhrasesN scans the corpus for the keys of a lexicon — Normalize
// forms, ascending and unique, as a frozen graph's name keys are — and
// returns the statistics of the key at position p at index p. Matching is
// greedy longest-match over token windows (stringutil.LongestKeyAt):
// overlapping shorter keys inside a longer matched key are not counted,
// mirroring how an annotator counts concept mentions.
//
// The documents are partitioned into contiguous ranges over workers
// goroutines, each range scanned independently over the shared column, and
// the per-shard statistics merged. All statistics are integer sums over
// disjoint document sets — TF and TotalTF sum occurrences, DF counts
// distinct documents, each of which lives in exactly one shard — so the
// result is identical to the serial scan for any worker count. workers <= 1
// runs the serial scan.
func (c *Corpus) CountPhrasesN(keys strtab.Column, workers int) []TermStats {
	out := make([]TermStats, keys.Len())
	workers = min(workers, len(c.docs))
	if workers <= 1 {
		c.countRange(keys, 0, len(c.docs), out)
		return out
	}
	// The first shard counts into out; the others are merged into it.
	shards := make([][]TermStats, workers)
	var wg sync.WaitGroup
	for w := range workers {
		lo := w * len(c.docs) / workers
		hi := (w + 1) * len(c.docs) / workers
		shards[w] = out
		if w > 0 {
			shards[w] = make([]TermStats, keys.Len())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.countRange(keys, lo, hi, shards[w])
		}()
	}
	wg.Wait()
	for _, shard := range shards[1:] {
		for p, st := range shard {
			if st.TotalTF == 0 {
				continue
			}
			agg := &out[p]
			agg.TotalTF += st.TotalTF
			agg.DF += st.DF
			if agg.TF == nil {
				agg.TF = st.TF
				continue
			}
			for label, tf := range st.TF {
				agg.TF[label] += tf
			}
		}
	}
	return out
}

// countRange scans documents [lo, hi) and accumulates statistics into out,
// indexed by key position. A key's TF map is made on its first occurrence;
// seen stamps each key with one past the last document it was counted in,
// so DF counts documents without a set per document.
func (c *Corpus) countRange(keys strtab.Column, lo, hi int, out []TermStats) {
	seen := make([]int32, keys.Len())
	var buf []byte
	for di := lo; di < hi; di++ {
		stamp := int32(di + 1)
		for si, toks := range c.tokenized[di] {
			label := c.docs[di].Sections[si].Label
			for i := 0; i < len(toks); {
				var p, n int
				p, n, buf = stringutil.LongestKeyAt(keys, toks, i, buf)
				if n == 0 {
					i++
					continue
				}
				st := &out[p]
				if st.TF == nil {
					st.TF = make(map[string]int)
				}
				st.TF[label]++
				st.TotalTF++
				if seen[p] != stamp {
					seen[p] = stamp
					st.DF++
				}
				i += n
			}
		}
	}
}

// IDF returns the inverse document frequency for a term with document
// frequency df over a corpus of n documents, using the smoothed form
// log((1+n)/(1+df)) + 1 so that terms present in every document still get
// positive weight and unseen terms do not divide by zero.
func IDF(df, n int) float64 {
	return math.Log(float64(1+n)/float64(1+df)) + 1
}
