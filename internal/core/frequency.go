// Package core implements the paper's primary contribution: the two-phase
// query relaxation method of Sections 3 and 5.
//
// The offline phase (Algorithm 1, Ingest) customizes an external knowledge
// source to a given KB: it enumerates the possible query contexts from the
// domain ontology, maps KB instances to external concepts, computes
// per-context concept frequencies from the document corpus (Equations 1–2,
// tf-idf adjusted), and adds application-specific shortcut edges that bring
// flagged concepts within a small hop radius while preserving semantic
// distances.
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
)

// FrequencyOptions controls how concept frequencies are derived from the
// corpus.
type FrequencyOptions struct {
	// UseTFIDF applies the paper's tf-idf adjustment: each concept's direct
	// mention count is weighted by its inverse document frequency, damping
	// concepts that are frequent only because they appear in a few very
	// verbose documents.
	UseTFIDF bool
	// Smoothing is the pseudo-count added when normalizing, so that
	// never-mentioned concepts receive a large finite information content
	// rather than an infinite one. Defaults to 0.02 when zero; smaller
	// values make the absence of corpus evidence for a context more
	// damning, which is what lets the contextual IC demote findings the KB
	// holds no data about in that context.
	Smoothing float64
}

func (o FrequencyOptions) withDefaults() FrequencyOptions {
	if o.Smoothing <= 0 {
		o.Smoothing = 0.02
	}
	return o
}

// FlatFrequencyData is the column layout of a frequency table, which is
// also the layout of the frequency sections of a flat (v4) bundle: per-label
// CSR spans of ascending (concept, value) pairs plus the aggregate over all
// labels. The aggregate holds, per concept, the float sum of its per-label
// values accumulated in ascending label order, so every table over the same
// spans produces bit-identical normalized frequencies. Slices handed to
// OpenFlatFrequencyTable may alias a memory mapping; they are never mutated.
type FlatFrequencyData struct {
	Root      eks.ConceptID
	Smoothing float64
	Labels    []string        // ascending
	Off       []int32         // len(Labels)+1
	IDs       []eks.ConceptID // ascending within each label span
	Vals      []float64
	AggIDs    []eks.ConceptID // ascending
	AggVals   []float64
}

// FrequencyTable holds, for every external concept, its propagated
// frequency per context label (Equation 2: direct mentions plus the
// frequencies of its direct descendants), plus an aggregate over all
// labels used when no contextual information is available. Its one read
// representation is the FlatFrequencyData columns, whether assembled by
// buildFromDirect or adopted from a bundle, plus what
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
	opts = opts.withDefaults()
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	root, ok := g.Root()
	if !ok {
		return nil, errNoRoot
	}

	// Gather direct counts for every concept name and synonym.
	var phrases []string
	for _, id := range g.ConceptIDs() {
		concept, _ := g.Concept(id)
		phrases = append(phrases, concept.Name)
		phrases = append(phrases, concept.Synonyms...)
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
	for _, id := range g.ConceptIDs() {
		// Name, then synonyms: the order the per-label sums are taken in.
		concept, _ := g.Concept(id)
		addName(id, concept.Name)
		for _, syn := range concept.Synonyms {
			addName(id, syn)
		}
	}

	return buildFromDirect(g, order, root, direct, opts), nil
}

// BuildFrequencyTableFromDirectCounts builds a frequency table from
// already-gathered direct mention counts per context label, propagating
// them bottom-up exactly like BuildFrequencyTable. It serves callers whose
// counts come from an external pipeline rather than the corpus scanner, and
// the paper-figure fixtures whose counts are given in the paper.
func BuildFrequencyTableFromDirectCounts(g *eks.Graph, direct map[string]map[eks.ConceptID]float64, opts FrequencyOptions) (*FrequencyTable, error) {
	opts = opts.withDefaults()
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	root, ok := g.Root()
	if !ok {
		return nil, errNoRoot
	}
	return buildFromDirect(g, order, root, direct, opts), nil
}

// buildFromDirect propagates direct counts bottom-up per label (Equation 2)
// and assembles the table. Labels are independent — each propagation walks
// the same topological order into its own value column — so they distribute
// across workers. Every label's span covers every concept of g.
func buildFromDirect(g *eks.Graph, order []eks.ConceptID, root eks.ConceptID, direct map[string]map[eks.ConceptID]float64, opts FrequencyOptions) *FrequencyTable {
	labels := make([]string, 0, len(direct))
	for label := range direct {
		labels = append(labels, label)
	}
	slices.Sort(labels)
	ids := g.ConceptIDs()
	n := len(ids)
	d := FlatFrequencyData{
		Root:      root,
		Smoothing: opts.Smoothing,
		Labels:    labels,
		Off:       make([]int32, len(labels)+1),
		IDs:       make([]eks.ConceptID, len(labels)*n),
		Vals:      make([]float64, len(labels)*n),
	}
	// Children as positions in ids, resolved once for all labels.
	childOff := make([]int32, n+1)
	var children []int32
	for i, id := range ids {
		for _, child := range g.Children(id) {
			c, _ := slices.BinarySearch(ids, child)
			children = append(children, int32(c))
		}
		childOff[i+1] = int32(len(children))
	}
	topo := make([]int32, n)
	for i, id := range order {
		p, _ := slices.BinarySearch(ids, id)
		topo[i] = int32(p)
	}
	parallelChunks(len(labels), runtime.GOMAXPROCS(0), func(lo, hi int) {
		for li := lo; li < hi; li++ {
			dm := direct[labels[li]]
			copy(d.IDs[li*n:], ids)
			vals := d.Vals[li*n : (li+1)*n]
			for _, p := range topo { // children before parents
				f := dm[ids[p]]
				for _, c := range children[childOff[p]:childOff[p+1]] {
					f += vals[c]
				}
				vals[p] = f
			}
		}
	})
	for li := range labels {
		d.Off[li+1] = int32((li + 1) * n)
	}
	d.AggIDs, d.AggVals = aggregateLabels(d.IDs, d.Vals)
	return newFrequencyTable(d)
}

// aggregateLabels sums every concept's per-label values in column order —
// ascending label order — so the float sums are reproducible run to run and
// equal for every table over the same spans.
func aggregateLabels(ids []eks.ConceptID, vals []float64) ([]eks.ConceptID, []float64) {
	agg := make(map[eks.ConceptID]float64)
	for i, id := range ids {
		agg[id] += vals[i]
	}
	aggIDs := make([]eks.ConceptID, 0, len(agg))
	for id := range agg {
		aggIDs = append(aggIDs, id)
	}
	slices.Sort(aggIDs)
	aggVals := make([]float64, len(aggIDs))
	for i, id := range aggIDs {
		aggVals[i] = agg[id]
	}
	return aggIDs, aggVals
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
	li, ok := slices.BinarySearch(t.d.Labels, label)
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

// Labels returns the number of distinct context labels with any counts.
func (t *FrequencyTable) Labels() int { return len(t.d.Labels) }

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
	if err := checkCSR32("frequency", len(d.Labels), d.Off, len(d.IDs)); err != nil {
		return nil, err
	}
	for i := 1; i < len(d.Labels); i++ {
		if d.Labels[i] <= d.Labels[i-1] {
			return nil, fmt.Errorf("core: frequency labels not strictly ascending at %d", i)
		}
	}
	for li := range d.Labels {
		ids := d.IDs[d.Off[li]:d.Off[li+1]]
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return nil, fmt.Errorf("core: frequency label %q ids not strictly ascending", d.Labels[li])
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
	d.Smoothing = FrequencyOptions{Smoothing: d.Smoothing}.withDefaults().Smoothing
	t := &FrequencyTable{
		d:     d,
		ctxs:  make([]ontology.Context, len(d.Labels)),
		ctxOK: make([]bool, len(d.Labels)),
		rootF: make([]float64, len(d.Labels)),
	}
	for li, label := range d.Labels {
		if lc, err := ontology.ParseContext(label); err == nil {
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
