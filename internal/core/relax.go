package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
	"medrelax/internal/trace"
)

// Sentinel errors let serving layers map failures to transport-level
// outcomes (HTTP status codes) without string matching. They are wrapped
// with detail, so test with errors.Is.
var (
	// ErrUnknownTerm marks a query term that maps to no external concept —
	// the caller asked about something the knowledge source does not name.
	ErrUnknownTerm = errors.New("unknown query term")
	// ErrBadContext marks a malformed or unknown query context string.
	ErrBadContext = errors.New("invalid query context")
)

// Result is one relaxed answer: an external concept within the search
// radius of the query concept, its similarity score under Equation 5, its
// hop distance in the customized graph, and the KB instances mapped to it.
type Result struct {
	Concept   eks.ConceptID
	Score     float64
	Hops      int
	Instances []kb.InstanceID
}

// RelaxOptions tunes the online phase.
type RelaxOptions struct {
	// Radius is the hop radius r of Algorithm 2. Defaults to 3: after
	// customization, flagged concepts are one hop from their flagged
	// ancestors/descendants, so a small radius reaches far semantically.
	Radius int
	// DynamicRadius grows the radius (up to MaxRadius) when fewer than k
	// candidates are found — the paper's "dynamically decided" alternative
	// to a fixed r.
	DynamicRadius bool
	// MaxRadius bounds dynamic growth. Defaults to 8.
	MaxRadius int
	// IncludeSelf also returns the query concept itself when flagged;
	// Algorithm 2 returns strict neighbours, but answer expansion
	// (Section 6.1, scenario 2) wants the exact match ranked first.
	IncludeSelf bool
}

func (o RelaxOptions) withDefaults() RelaxOptions {
	if o.Radius <= 0 {
		o.Radius = 3
	}
	if o.MaxRadius <= 0 {
		o.MaxRadius = 8
	}
	if o.MaxRadius < o.Radius {
		o.MaxRadius = o.Radius
	}
	return o
}

// ServePath identifies which compute path produced a relaxation answer.
// All paths are byte-identical in output; the distinction is purely
// observability (metrics, stats) and latency.
type ServePath uint8

const (
	// PathLive is the full Algorithm 2 traversal: walk the flagged frontier,
	// derive each candidate's canonical meet, score, rank.
	PathLive ServePath = iota
	// PathMaterialized served a precomputed offline top-k entry.
	PathMaterialized
	// PathIndexed scored a precomputed posting list instead of traversing.
	PathIndexed
)

// String names the path for metrics labels and stats maps.
func (p ServePath) String() string {
	switch p {
	case PathMaterialized:
		return "materialized"
	case PathIndexed:
		return "indexed"
	default:
		return "live"
	}
}

// MetricName is the long-form path name used on trace span tags and in
// the per-path counter series, matching the serving layer's metric
// suffixes (medrelax_relax_<name>_total).
func (p ServePath) MetricName() string {
	switch p {
	case PathMaterialized:
		return "materialized_hit"
	case PathIndexed:
		return "index_path"
	default:
		return "live_path"
	}
}

// Relaxer executes the online query relaxation (Algorithm 2) over an
// ingestion.
type Relaxer struct {
	ing    *Ingestion
	sim    *Similarity
	mapper match.Mapper
	opts   RelaxOptions

	// Optional offline accelerations (SetMaterialized, SetCandidateIndex);
	// nil keeps the pure live traversal.
	mat  *Materialized
	cidx *CandidateIndex
	// pw caches canonicalPathWeight for every (gen, spec) pair occurring
	// in cidx, so the indexed path skips the per-candidate hop product.
	pw [][]float64

	pathLive, pathMaterialized, pathIndexed atomic.Uint64
}

// SetMaterialized attaches an offline top-k store. It refuses (returning
// false) a store built under different RelaxOptions, whose entries would
// not reproduce this relaxer's answers.
func (r *Relaxer) SetMaterialized(m *Materialized) bool {
	if m == nil || m.Options() != r.opts {
		return false
	}
	r.mat = m
	return true
}

// SetCandidateIndex attaches a posting-list candidate index. It refuses
// (returning false) an index whose radius cannot cover the base search
// radius.
func (r *Relaxer) SetCandidateIndex(idx *CandidateIndex) bool {
	if idx == nil || idx.Radius() < r.opts.Radius {
		return false
	}
	r.cidx = idx
	if r.sim.UsePathWeight {
		r.pw = idx.pathWeightTable(r.sim.Weights)
	}
	return true
}

// PathCounts reports how many queries each compute path has answered since
// the relaxer was built.
func (r *Relaxer) PathCounts() (live, materialized, indexed uint64) {
	return r.pathLive.Load(), r.pathMaterialized.Load(), r.pathIndexed.Load()
}

// NewRelaxer builds the online phase. sim decides which variant runs (full
// QR, no-context, no-corpus, IC baseline); mapper resolves query terms to
// external concepts and is typically the same one used during ingestion.
func NewRelaxer(ing *Ingestion, sim *Similarity, mapper match.Mapper, opts RelaxOptions) *Relaxer {
	return &Relaxer{ing: ing, sim: sim, mapper: mapper, opts: opts.withDefaults()}
}

// RelaxTerm maps a query term to an external concept and relaxes it. It
// fails when the term cannot be mapped to any external concept (the error
// wraps ErrUnknownTerm).
func (r *Relaxer) RelaxTerm(term string, ctx *ontology.Context, k int) ([]Result, error) {
	return r.RelaxTermContext(context.Background(), term, ctx, k)
}

// RelaxTermContext is RelaxTerm with request-scoped cancellation: the
// serving layer threads the HTTP request context here so a deadline set by
// admission control stops the traversal mid-flight instead of burning CPU
// on an answer nobody will receive. The returned error wraps
// context.DeadlineExceeded / context.Canceled when the context fired.
func (r *Relaxer) RelaxTermContext(ctx context.Context, term string, qctx *ontology.Context, k int) ([]Result, error) {
	out, _, err := r.RelaxTermContextTraced(ctx, term, qctx, k)
	return out, err
}

// RelaxTermContextTraced is RelaxTermContext plus the compute path that
// answered, for serving-layer metrics.
func (r *Relaxer) RelaxTermContextTraced(ctx context.Context, term string, qctx *ontology.Context, k int) ([]Result, ServePath, error) {
	q, ok := r.mapper.Map(term)
	if !ok {
		return nil, PathLive, fmt.Errorf("core: query term %q: %w", term, ErrUnknownTerm)
	}
	// A sampled request gets a kernel span tagged with the compute path
	// that answered; untraced requests pay one context lookup and nothing
	// else (the batch and RelaxConcept entry points stay span-free).
	if parent := trace.FromContext(ctx); parent != nil {
		sp := parent.StartChild("relax.kernel")
		sp.SetTag("term", term)
		sc := &relaxScratch{}
		out, path, err := r.relaxConceptPath(ctx, q, qctx, k, sc)
		endKernelSpan(sp, path, sc.stats, err)
		return out, path, err
	}
	return r.relaxConceptPath(ctx, q, qctx, k, &relaxScratch{})
}

// kernelStats is what one kernel run did, for the sampled request's span:
// the radius it stopped at, the graph nodes its walk touched (none on the
// materialized and indexed paths) and the candidates it scored.
type kernelStats struct {
	radius, reached, scored int
}

// endKernelSpan tags a relax.kernel span with the run's outcome and ends it.
func endKernelSpan(sp *trace.Span, path ServePath, st kernelStats, err error) {
	sp.SetTag("path", path.MetricName())
	sp.SetTag("radius", strconv.Itoa(st.radius))
	sp.SetTag("reached", strconv.Itoa(st.reached))
	sp.SetTag("scored", strconv.Itoa(st.scored))
	if err != nil {
		sp.SetTag("error", err.Error())
	}
	sp.End()
}

// Options returns the relaxer's effective (defaulted) options — the
// fingerprint a Materialized store must match to be attachable.
func (r *Relaxer) Options() RelaxOptions {
	return r.opts
}

// RelaxConcept runs Algorithm 2 from an already-mapped query concept:
// gather flagged concepts within the hop radius, rank them by Equation 5
// under the query context, and keep popping candidates until at least k KB
// instances are collected (or candidates run out). The full ranked
// candidate list that was consumed is returned.
func (r *Relaxer) RelaxConcept(q eks.ConceptID, ctx *ontology.Context, k int) []Result {
	// Background never cancels, so the error path is unreachable here.
	out, _ := r.RelaxConceptContext(context.Background(), q, ctx, k)
	return out
}

// RelaxConceptContext is RelaxConcept under request-scoped cancellation.
// Cancellation is checked between radius-growth rounds and periodically
// during candidate scoring; on expiry the partial work is discarded and
// the context's error is returned.
func (r *Relaxer) RelaxConceptContext(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, k int) ([]Result, error) {
	return r.relaxConceptScratch(ctx, q, qctx, k, &relaxScratch{})
}

// relaxScratch holds the per-query working state that batch relaxation
// reuses across items: the instance-dedup set (filled level by level during
// the walk, and once per truncation), the walk's candidate and per-radius
// count buffers, and the stats of the last kernel run. Returned Result
// slices are always freshly allocated — only the intermediate state is
// shared.
type relaxScratch struct {
	seen   map[kb.InstanceID]bool
	hits   []flaggedHit
	counts []int32
	stats  kernelStats
}

// resetSeen clears (or lazily allocates) the dedup set.
func (s *relaxScratch) resetSeen() map[kb.InstanceID]bool {
	if s.seen == nil {
		s.seen = make(map[kb.InstanceID]bool)
	} else {
		clear(s.seen)
	}
	return s.seen
}

// relaxConceptScratch is the scratch-threaded core of RelaxConceptContext.
func (r *Relaxer) relaxConceptScratch(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, k int, sc *relaxScratch) ([]Result, error) {
	out, _, err := r.relaxConceptPath(ctx, q, qctx, k, sc)
	return out, err
}

// relaxConceptPath dispatches materialized -> indexed -> live and reports
// which path answered. All three paths produce byte-identical results; a
// path that cannot prove identity for this query declines and the next one
// runs.
func (r *Relaxer) relaxConceptPath(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, k int, sc *relaxScratch) ([]Result, ServePath, error) {
	target := k
	if target <= 0 {
		target = defaultCandidateTarget
	}
	sc.stats = kernelStats{}
	if r.mat != nil {
		out, ok, err := r.materializedServe(ctx, q, qctx, k, target, sc)
		if err != nil {
			return nil, PathMaterialized, err
		}
		if ok {
			r.pathMaterialized.Add(1)
			return out, PathMaterialized, nil
		}
	}
	ranked, path, err := r.rankedCandidatesPath(ctx, q, qctx, target, sc)
	if err != nil {
		return nil, path, err
	}
	if path == PathIndexed {
		r.pathIndexed.Add(1)
	} else {
		r.pathLive.Add(1)
	}
	if k <= 0 {
		return ranked, path, nil
	}
	return takeForKInstances(ranked, k, sc), path, nil
}

// rankedCandidatesPath tries the posting-list index before falling back to
// the live traversal.
func (r *Relaxer) rankedCandidatesPath(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, target int, sc *relaxScratch) ([]Result, ServePath, error) {
	if r.cidx != nil {
		out, ok, err := r.indexedCandidates(ctx, q, qctx, target, sc)
		if err != nil {
			return nil, PathIndexed, err
		}
		if ok {
			return out, PathIndexed, nil
		}
	}
	out, err := r.rankedCandidatesTarget(ctx, q, qctx, target, sc)
	return out, PathLive, err
}

// takeForKInstances keeps consuming ranked candidates until at least k
// distinct KB instances are collected (or candidates run out). Instances
// are deduplicated across candidates with the same semantics as
// TopKInstances, so an instance reachable through several candidate
// concepts is counted once.
func takeForKInstances(ranked []Result, k int, sc *relaxScratch) []Result {
	var out []Result
	seen := sc.resetSeen()
	for _, res := range ranked {
		if len(seen) >= k {
			break
		}
		out = append(out, res)
		for _, id := range res.Instances {
			seen[id] = true
		}
	}
	return out
}

// BatchQuery is one item of a RelaxBatchContext call.
type BatchQuery struct {
	// Term is resolved through the relaxer's mapper; an unmappable term
	// yields an error wrapping ErrUnknownTerm for that item.
	Term string
	// Concept short-circuits term mapping when UseConcept is set — the
	// batch relaxes this already-mapped concept directly.
	Concept    eks.ConceptID
	UseConcept bool
	// Ctx is the optional query context (nil: context-free).
	Ctx *ontology.Context
	// K bounds the distinct KB instances consumed; k <= 0 returns the full
	// ranked candidate list, exactly as RelaxConceptContext does.
	K int
}

// RelaxBatchContext answers a batch of queries in one call. Items are
// processed in input order and results[i]/errs[i] always correspond to
// queries[i], so output is deterministic for a deterministic batch. The
// per-query working state (instance-dedup sets, neighbour buffers) is
// allocated once and reused across items, which is what makes a batch
// cheaper than n sequential calls. The deadline is honoured between items
// and inside each item's traversal; once ctx fires, every remaining item
// reports the context error.
func (r *Relaxer) RelaxBatchContext(ctx context.Context, queries []BatchQuery) (results [][]Result, errs []error) {
	results, _, errs = r.RelaxBatchContextTraced(ctx, queries)
	return results, errs
}

// RelaxBatchContextTraced is RelaxBatchContext plus the compute path that
// answered each item, for serving-layer metrics. paths[i] is meaningful
// only when errs[i] is nil.
func (r *Relaxer) RelaxBatchContextTraced(ctx context.Context, queries []BatchQuery) (results [][]Result, paths []ServePath, errs []error) {
	results = make([][]Result, len(queries))
	paths = make([]ServePath, len(queries))
	errs = make([]error, len(queries))
	sc := &relaxScratch{}
	// Resolved once: a sampled batch gets one kernel span per item, each
	// tagged with its term and compute path; an untraced batch skips all
	// span work.
	parent := trace.FromContext(ctx)
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			for j := i; j < len(queries); j++ {
				errs[j] = fmt.Errorf("core: batch aborted at item %d/%d: %w", j, len(queries), err)
			}
			return results, paths, errs
		}
		concept := q.Concept
		if !q.UseConcept {
			mapped, ok := r.mapper.Map(q.Term)
			if !ok {
				errs[i] = fmt.Errorf("core: query term %q: %w", q.Term, ErrUnknownTerm)
				continue
			}
			concept = mapped
		}
		var sp *trace.Span
		if parent != nil {
			sp = parent.StartChild("relax.kernel")
			sp.SetTag("term", q.Term)
		}
		results[i], paths[i], errs[i] = r.relaxConceptPath(ctx, concept, q.Ctx, q.K, sc)
		if sp != nil {
			endKernelSpan(sp, paths[i], sc.stats, errs[i])
		}
	}
	return results, paths, errs
}

// RankedCandidates returns every flagged concept within the (possibly
// dynamically grown) radius of q, ranked by similarity to q, best first.
// Ties break by concept ID for determinism.
func (r *Relaxer) RankedCandidates(q eks.ConceptID, ctx *ontology.Context) []Result {
	out, _, _ := r.rankedCandidatesPath(context.Background(), q, ctx, defaultCandidateTarget, &relaxScratch{})
	return out
}

// scoreCheckInterval is how many candidate scorings happen between context
// checks: similarity scoring dominates online latency, so the deadline is
// polled often enough to stop promptly but not on every candidate.
const scoreCheckInterval = 64

// flaggedHit is one candidate of the walk: a flagged concept, as its slot in
// the flagged set, and its hop distance from the query concept.
type flaggedHit struct {
	slot, hops int32
}

// gatherFlagged is Algorithm 2 line 2 with the paper's "dynamically decided"
// radius: it walks the flagged frontier from q out to opts.Radius and then,
// under DynamicRadius, one more hop per growth round while the candidates so
// far supply fewer than target distinct KB instances, up to MaxRadius. Each
// round pays for its new level only; the dedup set grows with the levels and
// matches TopKInstances, so an instance mapped to several candidates counts
// once and growth stops exactly when target distinct results are reachable.
// Under IncludeSelf the flagged query concept is the first hit, at hop 0,
// and its instances count toward the target.
//
// hits come back in hop-ascending order; counts[i] is the number of distinct
// instances within radius opts.Radius+i, one per radius walked, so the walk
// stopped at opts.Radius+len(counts)-1. Counting stops at the target — past
// it only "enough" matters, and the set is most of a query's garbage — so a
// count is exact below target and at least target from there on;
// materialization passes no target and reads exact counts. Both slices alias
// the scratch.
func (r *Relaxer) gatherFlagged(ctx context.Context, q eks.ConceptID, target int, sc *relaxScratch) (hits []flaggedHit, counts []int32, err error) {
	maxR := r.opts.Radius
	if r.opts.DynamicRadius {
		maxR = r.opts.MaxRadius
	}
	hits, counts = sc.hits[:0], sc.counts[:0]
	seen := sc.resetSeen()
	add := func(slot, hops int32) {
		hits = append(hits, flaggedHit{slot: slot, hops: hops})
		if len(seen) >= target {
			return
		}
		_, instances := r.ing.flaggedAt(slot)
		for _, id := range instances {
			seen[id] = true
		}
	}
	if slot, flagged := r.ing.flaggedSlot(q); flagged && r.opts.IncludeSelf {
		add(slot, 0)
	}
	f, known := r.ing.flaggedFrontier(q)
	defer f.Close()
	for hops := 1; hops <= maxR; hops++ {
		if hops > r.opts.Radius && len(seen) >= target {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: relaxation aborted at radius %d: %w", hops, err)
		}
		if known {
			for _, slot := range f.Advance() {
				add(slot, int32(hops))
			}
		}
		if hops >= r.opts.Radius {
			counts = append(counts, int32(len(seen)))
		}
	}
	sc.hits, sc.counts = hits, counts
	sc.stats.radius = r.opts.Radius + len(counts) - 1
	if known {
		sc.stats.reached = f.Reached()
	}
	return hits, counts, nil
}

// rankedCandidatesTarget is the live kernel: gather the flagged candidates,
// score each under Equation 5 — the query side of the measure fetched once —
// and rank.
func (r *Relaxer) rankedCandidatesTarget(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, target int, sc *relaxScratch) ([]Result, error) {
	hits, _, err := r.gatherFlagged(ctx, q, target, sc)
	if err != nil {
		return nil, err
	}
	meets := r.sim.meetsFrom(q)
	icQ := r.sim.IC.IC(q, qctx, r.sim.Ontology)
	out := make([]Result, 0, len(hits))
	for i, h := range hits {
		if i%scoreCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: relaxation aborted scoring candidate %d/%d: %w", i, len(hits), err)
			}
		}
		id, instances := r.ing.flaggedAt(h.slot)
		score := 1.0 // the query concept itself, the only hit at hop 0
		if h.hops > 0 {
			meet, _, _ := meets.to(id)
			score = r.sim.score(meet, icQ, id, qctx)
		}
		out = append(out, Result{Concept: id, Score: score, Hops: int(h.hops), Instances: instances})
	}
	sc.stats.scored = len(out)
	slices.SortFunc(out, func(a, b Result) int { return rankOrder(a.Score, b.Score, a.Concept, b.Concept) })
	return out, nil
}

// rankOrder is the final ranking: score descending, ties by ascending
// concept — a total order over distinct candidates.
func rankOrder(sa, sb float64, ca, cb eks.ConceptID) int {
	return cmp.Or(cmp.Compare(sb, sa), cmp.Compare(ca, cb))
}

// defaultCandidateTarget is the dynamic-radius growth target when the
// caller did not bound k: keep widening until this many KB instances are
// reachable (or MaxRadius is hit).
const defaultCandidateTarget = 10

// TopKInstances flattens ranked results into at most k distinct KB
// instances, preserving rank order — the Res set of Algorithm 2.
func TopKInstances(results []Result, k int) []kb.InstanceID {
	var out []kb.InstanceID
	seen := map[kb.InstanceID]bool{}
	for _, res := range results {
		for _, id := range res.Instances {
			if seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, id)
			if len(out) == k {
				return out
			}
		}
	}
	return out
}
