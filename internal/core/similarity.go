package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"medrelax/internal/eks"
	"medrelax/internal/ontology"
	"medrelax/internal/stringutil"
)

var (
	errNoRoot        = errors.New("core: external knowledge source has no root")
	errSnapshotShape = errors.New("core: frequency snapshot has mismatched id/value lengths")
)

func normalizeName(name string) string { return stringutil.Normalize(name) }

// PathWeights are the per-hop edge weights of Equation 4. The paper's
// empirical study sets generalization to 0.9 and specialization to 1.0;
// LearnPathWeights can fit them from labeled data instead.
type PathWeights struct {
	Generalization float64
	Specialization float64
}

// DefaultPathWeights returns the paper's empirical weights.
func DefaultPathWeights() PathWeights {
	return PathWeights{Generalization: 0.9, Specialization: 1.0}
}

// PathWeight computes p_{A,B} of Equation 4 for a directed hop sequence
// from the query concept A to a candidate B:
//
//	p_{A,B} = Π_{i=1..D} w_i^{D−i}
//
// where D is the semantic path length and w_i the weight of the i-th hop.
// The exponent D−i penalizes early hops hardest, so a generalization at the
// start of the path costs more than one near the end — capturing that the
// meaning drifts most when the query term itself is generalized first.
// The empty path has weight 1.
func (w PathWeights) PathWeight(p eks.Path) float64 {
	d := p.Len()
	weight := 1.0
	for i, step := range p.Steps {
		wi := w.Specialization
		if step.Generalization {
			wi = w.Generalization
		}
		weight *= math.Pow(wi, float64(d-(i+1)))
	}
	return weight
}

// ICSource yields the information content of a concept under a query
// context. FrequencyTable (corpus-based) and IntrinsicIC (structure-based)
// both implement it, letting the similarity measure run with or without a
// corpus (the paper's QR vs QR-no-corpus variants).
type ICSource interface {
	IC(id eks.ConceptID, ctx *ontology.Context, o *ontology.Ontology) float64
}

// Similarity evaluates the paper's measures over one external knowledge
// source.
//
// Paths between a query concept A and a candidate B are taken as the
// canonical taxonomy path: up from A to the common subsumer C minimizing
// dist(A,C)+dist(B,C), then down to B — dist(A,C) generalization hops
// followed by dist(B,C) specializations. This is exactly the path shape the
// paper draws in Figure 6, and it lets one query's subsumer-distance map be
// reused across every candidate, which keeps online relaxation at
// Θ(N log N) per query as the paper's complexity analysis assumes.
//
// Similarity is safe for concurrent use once the graph has stopped
// mutating: subsumer-distance vectors are kept in a bounded, sharded LRU
// shared by all goroutines, and per-query scratch state comes from a
// sync.Pool. (Mutating the exported fields while queries run is not safe,
// as usual.)
type Similarity struct {
	Graph    *eks.Graph
	IC       ICSource
	Ontology *ontology.Ontology
	Weights  PathWeights
	// UsePathWeight disables Equation 4 when false, reducing Equation 5 to
	// the plain IC similarity — the paper's IC baseline.
	UsePathWeight bool

	// vecs caches subsumer-distance vectors of recently seen concepts —
	// query concepts and candidates alike, since Equation 5 needs both
	// endpoints' subsumer sets.
	vecs *weightedLRU[eks.SubsumerVec]

	// pw tabulates canonicalPathWeight by (gen, spec), grown on demand.
	pw   atomic.Pointer[pathWeightTable]
	pwMu sync.Mutex
}

// NewSimilarity returns the full measure (path weight enabled, default
// weights).
func NewSimilarity(g *eks.Graph, ic ICSource, o *ontology.Ontology) *Similarity {
	return &Similarity{
		Graph: g, IC: ic, Ontology: o, Weights: DefaultPathWeights(), UsePathWeight: true,
		vecs: newWeightedLRU[eks.SubsumerVec](lruShards * subsumerShardCap),
	}
}

// subsumerVec returns the subsumer-distance vector of a through the shared
// LRU. ok is false for an unknown concept.
func (s *Similarity) subsumerVec(a eks.ConceptID) (eks.SubsumerVec, bool) {
	if v, ok := s.vecs.get(a); ok {
		return v, true
	}
	v, ok := s.Graph.SubsumerVec(a)
	if !ok {
		return eks.SubsumerVec{}, false
	}
	s.vecs.put(a, v, 1)
	return v, true
}

// meetScratch is the per-query scratch of canonicalMeet, pooled so the hot
// path does not allocate a tied-LCS slice per candidate.
type meetScratch struct {
	ids []eks.ConceptID
}

var meetPool = sync.Pool{New: func() any { return &meetScratch{} }}

// CanonicalMeet is the exported form of canonicalMeet for explain-mode
// consumers: it returns the deterministic representative subsumer the
// canonical path runs through (minimal up-hops, then minimal ID), the full
// tied LCS set (ascending, freshly allocated), and the generalization /
// specialization hop counts of the canonical path. ok is false when a and b
// share no subsumer.
func (s *Similarity) CanonicalMeet(a, b eks.ConceptID) (rep eks.ConceptID, lcs []eks.ConceptID, gen, spec int, ok bool) {
	scratch := meetPool.Get().(*meetScratch)
	defer meetPool.Put(scratch)
	tied, rep, gen, spec, ok := s.canonicalMeet(a, b, scratch)
	if !ok {
		return 0, nil, 0, 0, false
	}
	return rep, append([]eks.ConceptID(nil), tied...), gen, spec, true
}

// CanonicalPathWeight exposes the Eq. 4 weight of the canonical
// up-then-down path (gen generalizations followed by spec specializations)
// under the measure's weights. The multiplication order matches the scoring
// path exactly, so explain-mode output is bit-identical to the weight the
// ranked score used.
func (s *Similarity) CanonicalPathWeight(gen, spec int) float64 {
	return s.pathWeight(gen, spec)
}

// canonicalMeet finds the common subsumers of a and b minimizing the
// combined distance, filling scratch.ids with the tied set (ascending), and
// returning the representative the canonical path runs through (minimal
// up-hops, then minimal ID) with its generalization hop count dist(a, c)
// and specialization hop count dist(b, c). ok is false when a and b share
// no subsumer.
func (s *Similarity) canonicalMeet(a, b eks.ConceptID, scratch *meetScratch) (lcs []eks.ConceptID, rep eks.ConceptID, gen, spec int, ok bool) {
	va, oka := s.subsumerVec(a)
	if !oka {
		return nil, 0, 0, 0, false
	}
	lcs, rep, gen, spec, ok = s.meetFrom(va, b, scratch.ids[:0])
	if ok {
		scratch.ids = lcs
	}
	return lcs, rep, gen, spec, ok
}

// meetFrom is canonicalMeet given the query side's subsumer vector, which a
// caller scoring many candidates of one query fetches once. The tied set is
// appended to ids.
func (s *Similarity) meetFrom(va eks.SubsumerVec, b eks.ConceptID, ids []eks.ConceptID) (lcs []eks.ConceptID, rep eks.ConceptID, gen, spec int, ok bool) {
	vb, okb := s.subsumerVec(b)
	if !okb {
		return nil, 0, 0, 0, false
	}
	best := -1
	eks.CommonSubsumers(va, vb, func(c eks.ConceptID, da, db int) {
		sum := da + db
		switch {
		case best == -1 || sum < best:
			best = sum
			ids = ids[:0]
			ids = append(ids, c)
			rep, gen, spec = c, da, db
		case sum == best:
			ids = append(ids, c)
			if da < gen || (da == gen && c < rep) {
				rep, gen, spec = c, da, db
			}
		}
	})
	if best == -1 {
		return nil, 0, 0, 0, false
	}
	// The merge join visits concepts in ascending ID order, so the tied set
	// is already sorted.
	return ids, rep, gen, spec, true
}

// Equation 5 factors into a context-free half — the canonical meet of the
// pair: tied LCS set and Eq. 4 path weight — and a context half, sim_IC over
// that LCS set under the query context. The relaxation kernel derives the
// first once per (query, candidate) pair (queryMeets, into a geometry) and
// reads the second off the context's IC plane (Relaxer.scoreGeometry); Sim is
// the two halves back to back over contextIC, the plane's source, so every
// route is bit-identical.

// queryMeets derives the canonical meets of one query concept's candidates,
// holding what only depends on the query: its subsumer vector and the
// tied-set buffer.
type queryMeets struct {
	sim   *Similarity
	vec   eks.SubsumerVec
	known bool
	ids   []eks.ConceptID
}

func (s *Similarity) meetsFrom(q eks.ConceptID) queryMeets {
	vec, known := s.subsumerVec(q)
	return queryMeets{sim: s, vec: vec, known: known}
}

// to returns the tied LCS set of the query concept and candidate b and the
// hop counts of their canonical path; an empty set means no common subsumer.
// The set aliases the buffer: copy it to keep it past the next call.
func (m *queryMeets) to(b eks.ConceptID) (lcs []eks.ConceptID, gen, spec int) {
	if !m.known {
		return nil, 0, 0
	}
	lcs, _, gen, spec, ok := m.sim.meetFrom(m.vec, b, m.ids[:0])
	if !ok {
		return nil, 0, 0
	}
	m.ids = lcs
	return lcs, gen, spec
}

// contextIC is the measure's IC source under one query context. A relaxation
// asks it for a couple of thousand concepts, so what depends on the context
// alone is settled when it is made: a frequency table resolves the context to
// its labels here, once, instead of once a concept. The values are those of
// ICSource.IC, bit for bit.
type contextIC struct {
	src    ICSource
	ctx    *ontology.Context
	o      *ontology.Ontology
	table  *FrequencyTable // src, when it is one and the context needs resolving
	labels *contextLabels
}

func (s *Similarity) icUnder(ctx *ontology.Context) contextIC {
	ic := contextIC{src: s.IC, ctx: ctx, o: s.Ontology}
	if t, ok := s.IC.(*FrequencyTable); ok && ctx != nil && s.Ontology != nil {
		ic.table, ic.labels = t, t.labelsFor(contextKey{ctx: *ctx, o: s.Ontology})
	}
	return ic
}

func (c *contextIC) of(id eks.ConceptID) float64 {
	if c.table != nil {
		return icOfFrequency(c.table.normalizedOver(c.labels, id))
	}
	return c.src.IC(id, c.ctx, c.o)
}

// SimIC computes the IC-based similarity of Equation 3,
//
//	sim_IC(A,B) = 2·IC(lcs(A,B)) / (IC(A)+IC(B)),
//
// under the query context. Per footnote 1, when several least common
// subsumers tie on distance to the pair, the average of their ICs is used.
// The result is clamped to [0,1]; a pair with no common subsumer has
// similarity 0, and identical concepts have similarity 1.
func (s *Similarity) SimIC(a, b eks.ConceptID, ctx *ontology.Context) float64 {
	if a == b {
		return 1
	}
	scratch := meetPool.Get().(*meetScratch)
	defer meetPool.Put(scratch)
	lcs, _, _, _, ok := s.canonicalMeet(a, b, scratch)
	if !ok {
		return 0
	}
	ic := s.icUnder(ctx)
	return simICFromLCS(ic.of(a), b, lcs, &ic)
}

// simICFromLCS is Equation 3 over an already-derived LCS set; icA is IC(a)
// under ic's context.
func simICFromLCS(icA float64, b eks.ConceptID, lcs []eks.ConceptID, ic *contextIC) float64 {
	lcsIC := 0.0
	for _, id := range lcs {
		lcsIC += ic.of(id)
	}
	return simICOf(lcsIC/float64(len(lcs)), icA, ic.of(b))
}

// simICOf is the arithmetic of Equation 3 from the three ICs it names — the
// tied LCS set's mean and the two endpoints' — for every route to them.
func simICOf(lcsIC, icA, icB float64) float64 {
	denom := icA + icB
	if denom <= 0 {
		return 0
	}
	sim := 2 * lcsIC / denom
	if sim < 0 {
		return 0
	}
	if sim > 1 {
		return 1
	}
	return sim
}

// Sim computes the combined similarity of Equation 5 from the query concept
// a to the candidate b: sim(A,B) = p_{A,B} × sim_IC(A,B). Unlike sim_IC the
// measure is asymmetric, because the path weight depends on which endpoint
// is the query term (Example 4). Disconnected pairs score 0.
func (s *Similarity) Sim(a, b eks.ConceptID, ctx *ontology.Context) float64 {
	if a == b {
		return 1
	}
	scratch := meetPool.Get().(*meetScratch)
	defer meetPool.Put(scratch)
	lcs, _, gen, spec, ok := s.canonicalMeet(a, b, scratch)
	if !ok {
		return 0
	}
	ic := s.icUnder(ctx)
	sim := simICFromLCS(ic.of(a), b, lcs, &ic)
	if !s.UsePathWeight {
		return sim
	}
	return s.pathWeight(gen, spec) * sim
}

// canonicalPathWeight computes PathWeight over the canonical up-then-down
// hop sequence (gen generalizations followed by spec specializations)
// without materializing the path. The multiplication order matches
// PathWeight exactly, so results are bit-identical to the materialized
// form.
func canonicalPathWeight(w PathWeights, gen, spec int) float64 {
	d := gen + spec
	weight := 1.0
	for i := 0; i < gen; i++ {
		weight *= math.Pow(w.Generalization, float64(d-(i+1)))
	}
	for i := gen; i < d; i++ {
		weight *= math.Pow(w.Specialization, float64(d-(i+1)))
	}
	return weight
}

// pathWeightTable is canonicalPathWeight under w for every gen, spec < side,
// immutable once published. Its entries are computed by canonicalPathWeight
// itself, so a lookup is bit-identical to the hop product.
type pathWeightTable struct {
	w    PathWeights
	side int
	vals []float64 // vals[gen*side+spec]
}

// maxTabledHops bounds the table's side (32 KiB of weights); a canonical
// path with more hops in one direction is multiplied out directly.
const maxTabledHops = 64

// pathWeight is canonicalPathWeight under the measure's weights, through the
// table: Equation 4 costs one math.Pow per hop, and a query's candidates
// share a handful of (gen, spec) shapes.
func (s *Similarity) pathWeight(gen, spec int) float64 {
	need := max(gen, spec)
	t := s.pw.Load()
	if t == nil || need >= t.side || t.w != s.Weights {
		if need >= maxTabledHops {
			return canonicalPathWeight(s.Weights, gen, spec)
		}
		t = s.growPathWeights(need)
	}
	return t.vals[gen*t.side+spec]
}

// growPathWeights publishes a table under the current weights that covers
// need hops in either direction, doubling so growth is rare.
func (s *Similarity) growPathWeights(need int) *pathWeightTable {
	s.pwMu.Lock()
	defer s.pwMu.Unlock()
	if t := s.pw.Load(); t != nil && need < t.side && t.w == s.Weights {
		return t
	}
	side := 8
	for side <= need {
		side *= 2
	}
	t := &pathWeightTable{w: s.Weights, side: side, vals: make([]float64, side*side)}
	for gen := 0; gen < side; gen++ {
		for spec := 0; spec < side; spec++ {
			t.vals[gen*side+spec] = canonicalPathWeight(t.w, gen, spec)
		}
	}
	s.pw.Store(t)
	return t
}

// IntrinsicIC is the corpus-free information content of Seco, Veale & Hayes
// (ECAI 2004), estimated purely from the taxonomy structure:
//
//	IC(A) = 1 − log(desc(A)+1) / log(|V|)
//
// where desc(A) is the number of descendants of A and |V| the number of
// concepts. Leaves have IC 1 and the root tends toward 0. The query context
// is ignored — there is no corpus to contextualize. This powers the
// QR-no-corpus variant.
type IntrinsicIC struct {
	graph *eks.Graph
	cache map[eks.ConceptID]float64
	logV  float64
}

// NewIntrinsicIC precomputes descendant counts for every concept of g.
func NewIntrinsicIC(g *eks.Graph) *IntrinsicIC {
	ic := &IntrinsicIC{graph: g, cache: make(map[eks.ConceptID]float64, g.Len())}
	v := g.Len()
	if v < 2 {
		v = 2
	}
	ic.logV = math.Log(float64(v))
	counts := g.DescendantCounts()
	for i, id := range g.ConceptIDs() {
		ic.cache[id] = 1 - math.Log(float64(counts[i])+1)/ic.logV
	}
	return ic
}

// IC implements ICSource; ctx and o are ignored.
func (ic *IntrinsicIC) IC(id eks.ConceptID, _ *ontology.Context, _ *ontology.Ontology) float64 {
	return ic.cache[id]
}

// noContextIC wraps an ICSource and discards the query context, giving the
// QR-no-context variant: frequencies aggregate over all contexts.
type noContextIC struct{ src ICSource }

// WithoutContext returns an ICSource that ignores contextual information.
func WithoutContext(src ICSource) ICSource { return noContextIC{src: src} }

// IC implements ICSource.
func (n noContextIC) IC(id eks.ConceptID, _ *ontology.Context, o *ontology.Ontology) float64 {
	return n.src.IC(id, nil, o)
}
