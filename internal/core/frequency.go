// Package core implements the paper's primary contribution: the two-phase
// query relaxation method of Sections 3 and 5.
//
// The offline phase (Algorithm 1, Ingest) customizes an external knowledge
// source to a given KB: it enumerates the possible query contexts from the
// domain ontology, maps KB instances to external concepts, computes
// per-context concept frequencies from the document corpus (Equations 1–2,
// raw mention counts by default; the paper's tf-idf adjustment is the
// FrequencyOptions.UseTFIDF ablation), and adds application-specific
// shortcut edges that bring flagged concepts within a small hop radius while
// preserving semantic distances.
//
// The online phase (Algorithm 2, Relaxer) receives a [query term, context]
// pair, finds the corresponding external concept, gathers flagged concepts
// within a hop radius, and ranks them by the combined similarity measure
// (Equation 5): a directional path weight (Equation 4) times the IC-based
// similarity (Equation 3) under the context-appropriate frequencies.
package core

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/ontology"
	"medrelax/internal/strtab"
)

// FrequencyOptions controls how concept frequencies are derived from the
// corpus.
type FrequencyOptions struct {
	// UseTFIDF applies the paper's tf-idf adjustment: each concept's direct
	// mention count is weighted by its inverse document frequency, damping
	// concepts that are frequent only because they appear in a few very
	// verbose documents.
	UseTFIDF bool
}

// frequencySmoothing is the pseudo-count added when normalizing, so that
// never-mentioned concepts receive a large finite information content rather
// than an infinite one. A small value makes the absence of corpus evidence
// for a context damning, which is what lets the contextual IC demote
// findings the KB holds no data about in that context. A table carries the
// smoothing it was built with, and a bundle stores it.
const frequencySmoothing = 0.02

// FlatFrequencyData is the column layout of a frequency table, which is
// also the layout of the frequency sections of a flat (v4) bundle: per-label
// CSR spans of ascending (concept, value) pairs plus the aggregate over all
// labels. The aggregate holds, per concept, the float sum of its per-label
// values accumulated in ascending label order, so every table over the same
// spans produces bit-identical normalized frequencies. The writer stores no
// zero value: a concept absent from a span or the aggregate reads as 0, so
// a span holds only the concepts with corpus evidence under its label.
// Tables written with zeros (spans over every concept) read the same.
// Columns handed to OpenFlatFrequencyTable may alias a memory mapping; they
// are never mutated.
type FlatFrequencyData struct {
	Root      eks.ConceptID
	Smoothing float64
	Labels    strtab.Column   // ascending
	Off       []int32         // Labels.Len()+1
	IDs       []eks.ConceptID // ascending within each label span
	Vals      []float64
	AggIDs    []eks.ConceptID // ascending
	AggVals   []float64
}

// FrequencyTable answers, for every external concept, its propagated
// frequency per context label (Equation 2: direct mentions plus the
// frequencies of its direct descendants), plus an aggregate over all
// labels used when no contextual information is available. It stores only
// the nonzero frequencies; every other concept reads 0. Its one read
// representation is the FlatFrequencyData columns, whether assembled by
// BuildFrequencyTableFromDirectCounts or adopted from a bundle, plus what
// OpenFlatFrequencyTable derives from them once so NormalizedForContext
// neither parses nor allocates.
type FrequencyTable struct {
	d FlatFrequencyData

	ctxs    []ontology.Context // parsed label contexts
	ctxOK   []bool             // whether the label parsed as a context
	rootF   []float64          // per-label root frequency
	aggRoot float64

	// resolved memoises labelsFor per (context, ontology). Readers load the
	// map; writers copy it.
	resolved  atomic.Pointer[map[contextKey]*contextLabels]
	resolveMu sync.Mutex
}

type contextKey struct {
	ctx ontology.Context
	o   *ontology.Ontology
}

// contextLabels is one query context resolved against the table's labels:
// the labels whose context it subsumes, ascending, and the root's frequency
// summed over them in that order.
type contextLabels struct {
	labels []int32
	rootF  float64
}

// maxResolvedContexts bounds the memo; an ontology has a few dozen contexts,
// and one past the bound is resolved per call, as every one used to be.
const maxResolvedContexts = 256

// BuildFrequencyTable computes per-context concept frequencies for every
// concept of g from the corpus c.
//
// Direct mention counts are gathered with the corpus phrase scanner over
// each concept's preferred name and synonyms; a mention inside a section
// labeled with context ℓ counts toward label ℓ. Counts then propagate
// bottom-up over the subsumption hierarchy in topological order (children
// before parents), exactly as in Algorithm 1 lines 12–18: the frequency of
// a concept is its direct count plus the sum of its direct children's
// frequencies.
func BuildFrequencyTable(g *eks.Graph, c *corpus.Corpus, opts FrequencyOptions) (*FrequencyTable, error) {
	return BuildFrequencyTableFromDirectCounts(g, directCounts(g, c, opts), opts)
}

// directCounts gathers, per context label, every concept's tf (or tf-idf)
// over its name and synonyms.
func directCounts(g *eks.Graph, c *corpus.Corpus, opts FrequencyOptions) map[string]map[eks.ConceptID]float64 {
	fg := g.FlatData()
	// Each concept's name, then its synonyms: concept p's are
	// phrases[start[p]:start[p+1]].
	var phrases []string
	start := make([]int, len(fg.IDs)+1)
	for p := range fg.IDs {
		phrases = append(phrases, fg.Names.At(p))
		for k := fg.SynOff[p]; k < fg.SynOff[p+1]; k++ {
			phrases = append(phrases, fg.Syns.At(int(k)))
		}
		start[p+1] = len(phrases)
	}
	stats := c.CountPhrasesN(phrases, runtime.GOMAXPROCS(0))
	n := c.DocCount()

	// direct[label][id]: tf (or tf-idf) of the concept under each label.
	direct := map[string]map[eks.ConceptID]float64{}
	addDirect := func(label string, id eks.ConceptID, v float64) {
		m, ok := direct[label]
		if !ok {
			m = map[eks.ConceptID]float64{}
			direct[label] = m
		}
		m[id] += v
	}
	addName := func(id eks.ConceptID, name string) {
		st, ok := lookupStats(stats, name)
		if !ok || st.TotalTF == 0 {
			return
		}
		weight := 1.0
		if opts.UseTFIDF {
			weight = corpus.IDF(st.DF, n)
		}
		for label, tf := range st.TF {
			addDirect(label, id, float64(tf)*weight)
		}
	}
	for p, id := range fg.IDs {
		// Name, then synonyms: the order the per-label sums are taken in.
		for _, name := range phrases[start[p]:start[p+1]] {
			addName(id, name)
		}
	}
	return direct
}

// BuildFrequencyTableFromDirectCounts builds a frequency table from direct
// mention counts per context label, gathered by BuildFrequencyTable, an
// external pipeline, or given in the paper (the paper-figure fixtures).
// Counts propagate bottom-up per label (Equation 2) over the graph's dense
// nodes; labels are independent, so they distribute across workers. A
// label's span keeps only the concepts whose value is not zero, and the
// aggregate only the nonzero sums: a reader answers 0 for an absent
// concept, so every read is what a span over every concept gives (a -0
// direct count reads back as +0).
func BuildFrequencyTableFromDirectCounts(g *eks.Graph, direct map[string]map[eks.ConceptID]float64, opts FrequencyOptions) (*FrequencyTable, error) {
	topo, err := g.TopologicalNodes()
	if err != nil {
		return nil, err
	}
	root, ok := g.Root()
	if !ok {
		return nil, errNoRoot
	}
	fg := g.FlatData()
	n := len(fg.IDs)
	// Each node's native children in ascending concept order, so every sum
	// is taken in the same order.
	kidLo, kidHi, kids := fg.DownOff, fg.DownNativeEnd, slices.Clone(fg.DownTo)
	for p := range n {
		slices.Sort(kids[kidLo[p]:kidHi[p]])
	}

	labels := make([]string, 0, len(direct))
	for label := range direct {
		labels = append(labels, label)
	}
	slices.Sort(labels)
	type span struct {
		pos  []int32
		vals []float64
	}
	spans := make([]span, len(labels))
	parallelChunks(len(labels), runtime.GOMAXPROCS(0), func(lo, hi int) {
		f := make([]float64, n)
		for li := lo; li < hi; li++ {
			clear(f)
			for id, v := range direct[labels[li]] {
				if p, ok := slices.BinarySearch(fg.IDs, id); ok {
					f[p] = v
				}
			}
			for _, p := range topo { // children before parents
				sum := f[p]
				for _, c := range kids[kidLo[p]:kidHi[p]] {
					sum += f[c]
				}
				f[p] = sum
			}
			sp := &spans[li]
			for p, v := range f {
				if v != 0 {
					sp.pos = append(sp.pos, int32(p))
					sp.vals = append(sp.vals, v)
				}
			}
		}
	})

	d := FlatFrequencyData{Root: root, Smoothing: frequencySmoothing, Labels: strtab.Pack(labels), Off: make([]int32, len(labels)+1)}
	// The aggregate sums each concept's values in ascending label order, so
	// the float sums are reproducible run to run.
	agg := make([]float64, n)
	for li, sp := range spans {
		for i, p := range sp.pos {
			d.IDs = append(d.IDs, fg.IDs[p])
			agg[p] += sp.vals[i]
		}
		d.Vals = append(d.Vals, sp.vals...)
		d.Off[li+1] = int32(len(d.IDs))
	}
	for p, v := range agg {
		if v != 0 {
			d.AggIDs = append(d.AggIDs, fg.IDs[p])
			d.AggVals = append(d.AggVals, v)
		}
	}
	return newFrequencyTable(d), nil
}

// lookupStats finds a name's statistics with one Normalize and one map
// lookup: corpus.CountPhrases keys every phrase by its Normalize form.
func lookupStats(stats map[string]corpus.TermStats, name string) (corpus.TermStats, bool) {
	st, ok := stats[normalizeName(name)]
	return st, ok
}

// span returns one label's ascending (concept, value) columns.
func (t *FrequencyTable) span(li int) ([]eks.ConceptID, []float64) {
	lo, hi := t.d.Off[li], t.d.Off[li+1]
	return t.d.IDs[lo:hi], t.d.Vals[lo:hi]
}

// Raw returns the propagated (un-normalized) frequency of a concept under a
// single corpus context label, 0 when never mentioned.
func (t *FrequencyTable) Raw(id eks.ConceptID, label string) float64 {
	li, ok := t.d.Labels.Search(label)
	if !ok {
		return 0
	}
	ids, vals := t.span(li)
	return lookupIn(ids, vals, id)
}

// RawAggregate returns the propagated frequency summed over all labels.
func (t *FrequencyTable) RawAggregate(id eks.ConceptID) float64 {
	return lookupIn(t.d.AggIDs, t.d.AggVals, id)
}

// normalized maps a raw frequency to the smoothed probability of the
// concept under the root's total for the same slice of the table; the root
// always normalizes to 1 (Section 5.1).
func (t *FrequencyTable) normalized(f, rootF float64) float64 {
	return (f + t.d.Smoothing) / (rootF + t.d.Smoothing)
}

// NormalizedForContext returns the normalized frequency of the concept for
// a query context, summing the per-label frequencies over every known label
// whose context is subsumed by ctx under the domain ontology o (same
// relationship name, domain and range being subconcepts). This realizes the
// paper's Example 3: a query in context Drug-cause-Risk aggregates the
// frequencies of all three Risk subconcept contexts. Matching labels are
// summed in ascending label order, so the float sum is the same on every
// call and for every table over the same spans.
//
// A nil ctx — no contextual information available — aggregates every label,
// which is the paper's stated fallback and the behaviour of QR-no-context.
func (t *FrequencyTable) NormalizedForContext(id eks.ConceptID, ctx *ontology.Context, o *ontology.Ontology) float64 {
	if ctx == nil || o == nil {
		return t.normalized(t.RawAggregate(id), t.aggRoot)
	}
	return t.normalizedOver(t.labelsFor(contextKey{ctx: *ctx, o: o}), id)
}

// normalizedOver is NormalizedForContext for a context already resolved to
// its labels.
func (t *FrequencyTable) normalizedOver(cl *contextLabels, id eks.ConceptID) float64 {
	if len(cl.labels) == 0 {
		// No corpus evidence for this context at all: fall back to the
		// aggregate so IC stays informative rather than uniformly maximal.
		return t.normalized(t.RawAggregate(id), t.aggRoot)
	}
	f := 0.0
	for _, li := range cl.labels {
		ids, vals := t.span(int(li))
		f += lookupIn(ids, vals, id)
	}
	return t.normalized(f, cl.rootF)
}

// labelsFor resolves a query context to the labels it subsumes, through the
// memo.
func (t *FrequencyTable) labelsFor(key contextKey) *contextLabels {
	if m := t.resolved.Load(); m != nil {
		if cl := (*m)[key]; cl != nil {
			return cl
		}
	}
	return t.resolveLabels(key)
}

// resolveLabels scans the labels for those key's context subsumes under its
// ontology (same relationship name, domain and range being subconcepts) and
// publishes the answer.
func (t *FrequencyTable) resolveLabels(key contextKey) *contextLabels {
	cl := &contextLabels{}
	for li := range t.ctxs {
		if !t.ctxOK[li] {
			continue
		}
		lc := &t.ctxs[li]
		if lc.Relationship != key.ctx.Relationship {
			continue
		}
		if !key.o.IsSubConceptOf(lc.Domain, key.ctx.Domain) || !key.o.IsSubConceptOf(lc.Range, key.ctx.Range) {
			continue
		}
		cl.labels = append(cl.labels, int32(li))
		cl.rootF += t.rootF[li]
	}
	t.resolveMu.Lock()
	defer t.resolveMu.Unlock()
	m := map[contextKey]*contextLabels{}
	if old := t.resolved.Load(); old != nil {
		if len(*old) >= maxResolvedContexts {
			return cl
		}
		m = maps.Clone(*old)
	}
	m[key] = cl
	t.resolved.Store(&m)
	return cl
}

// OpenFlatFrequencyTable adopts frequency columns as a *FrequencyTable. It
// validates sorted labels and spans, then derives the per-label root
// frequencies and parsed contexts. The aggregate is trusted structurally
// (sorted, well-shaped) — in a bundle its values are protected by the
// checksum and pinned to the label-order accumulation by the conversion
// round-trip tests.
func OpenFlatFrequencyTable(d FlatFrequencyData) (*FrequencyTable, error) {
	if len(d.IDs) != len(d.Vals) {
		return nil, fmt.Errorf("core: frequency table: %d ids, %d values", len(d.IDs), len(d.Vals))
	}
	if len(d.AggIDs) != len(d.AggVals) {
		return nil, fmt.Errorf("core: frequency aggregate: %d ids, %d values", len(d.AggIDs), len(d.AggVals))
	}
	labels := d.Labels.Len()
	if err := checkCSR32("frequency", labels, d.Off, len(d.IDs)); err != nil {
		return nil, err
	}
	for i := 1; i < labels; i++ {
		if d.Labels.At(i) <= d.Labels.At(i-1) {
			return nil, fmt.Errorf("core: frequency labels not strictly ascending at %d", i)
		}
	}
	for li := range labels {
		ids := d.IDs[d.Off[li]:d.Off[li+1]]
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return nil, fmt.Errorf("core: frequency label %q ids not strictly ascending", d.Labels.At(li))
			}
		}
	}
	for i := 1; i < len(d.AggIDs); i++ {
		if d.AggIDs[i] <= d.AggIDs[i-1] {
			return nil, fmt.Errorf("core: frequency aggregate ids not strictly ascending at %d", i)
		}
	}
	return newFrequencyTable(d), nil
}

// newFrequencyTable derives, once, what NormalizedForContext reads besides
// the columns: the parsed label contexts and the root's frequencies.
func newFrequencyTable(d FlatFrequencyData) *FrequencyTable {
	if d.Smoothing <= 0 {
		d.Smoothing = frequencySmoothing
	}
	t := &FrequencyTable{
		d:     d,
		ctxs:  make([]ontology.Context, d.Labels.Len()),
		ctxOK: make([]bool, d.Labels.Len()),
		rootF: make([]float64, d.Labels.Len()),
	}
	for li := range d.Labels.Len() {
		if lc, err := ontology.ParseContext(d.Labels.At(li)); err == nil {
			t.ctxs[li], t.ctxOK[li] = lc, true
		}
		ids, vals := t.span(li)
		t.rootF[li] = lookupIn(ids, vals, d.Root)
	}
	t.aggRoot = t.RawAggregate(d.Root)
	return t
}

// FlatData returns the table's columns, the form a flat bundle stores. The
// slices alias the table and must not be modified.
func (t *FrequencyTable) FlatData() FlatFrequencyData { return t.d }

// IC returns the information content of the concept under the query
// context: IC(A) = −log(freq(A)) over normalized frequencies (Equation 1).
// The root has IC 0; never-mentioned concepts get a large finite IC thanks
// to smoothing.
func (t *FrequencyTable) IC(id eks.ConceptID, ctx *ontology.Context, o *ontology.Ontology) float64 {
	return icOfFrequency(t.NormalizedForContext(id, ctx, o))
}

// icOfFrequency is Equation 1 over a normalized frequency.
func icOfFrequency(f float64) float64 {
	if f >= 1 {
		return 0
	}
	return -math.Log(f)
}
