package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
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

// ParseContext turns the wire form of a query context
// (Domain-Relationship-Range, or "" for none) into the typed form; a parse
// failure wraps ErrBadContext.
func ParseContext(qctx string) (*ontology.Context, error) {
	if qctx == "" {
		return nil, nil
	}
	parsed, err := ontology.ParseContext(qctx)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadContext, err)
	}
	return &parsed, nil
}

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

// ServePath identifies which store supplied a relaxation answer's candidate
// set. All paths are byte-identical in output; the distinction is purely
// observability (metrics, stats) and latency.
type ServePath uint8

const (
	// PathLive scored a geometry Algorithm 2's traversal supplied: the flagged
	// frontier walked and each candidate's canonical meet derived, for this
	// request or for an earlier one of the same concept that left it in the
	// geometry memo.
	PathLive ServePath = iota
	// PathMaterialized served a precomputed offline top-k entry: candidates
	// and scores both stored, nothing scored.
	PathMaterialized
	// PathIndexed scored a geometry the candidate index supplied: a view of the
	// columns it stores, which a bundle maps. Once a target outgrows the index's
	// horizon a walk takes its place in the memo and the concept's later
	// requests are PathLive.
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

	// geo memoises the live kernel's geometry per query concept. It belongs
	// to this relaxer — its options decide the walk, its similarity the
	// meets — and goes when the relaxer does, with the snapshot it serves.
	geo *weightedLRU[*geometry]
	// planes holds the IC plane of every query context asked so far (see
	// plane.go). Readers load the map; writers copy it.
	planes  atomic.Pointer[map[planeKey][]float64]
	planeMu sync.Mutex

	pathLive, pathMaterialized, pathIndexed  atomic.Uint64
	matTruncated                             atomic.Uint64
	geoHits, geoFills, geoRefills, geoMapped atomic.Uint64
	geoEntered                               atomic.Uint64
}

// SetMaterialized attaches an offline top-k store. It refuses (returning
// false) a store built under different RelaxOptions, whose entries would
// not reproduce this relaxer's answers, or over another flagged set than the
// ingestion's, which its candidates' slots would misname.
func (r *Relaxer) SetMaterialized(m *Materialized) bool {
	if m == nil || m.Options() != r.opts || !slices.Equal(m.flagged, r.ing.maps.Flagged) {
		return false
	}
	r.mat = m
	return true
}

// SetCandidateIndex attaches a candidate index. It refuses (returning false)
// an index whose radius cannot cover the base search radius, or one over
// another flagged set or other node ids than the ingestion's, which its hits'
// slots and LCS nodes would misname.
func (r *Relaxer) SetCandidateIndex(idx *CandidateIndex) bool {
	if idx == nil || idx.Radius() < r.opts.Radius ||
		!slices.Equal(idx.flagged, r.ing.maps.Flagged) || !slices.Equal(idx.nodes, r.ing.Graph.FlatData().IDs) {
		return false
	}
	r.cidx = idx
	return true
}

// PathCounts reports how many queries each compute path has answered since
// the relaxer was built.
func (r *Relaxer) PathCounts() (live, materialized, indexed uint64) {
	return r.pathLive.Load(), r.pathMaterialized.Load(), r.pathIndexed.Load()
}

// TruncatedDeclines reports how many queries the materialized store held an
// entry for and still declined, the entry cut too shallow to prove their k;
// PathCounts has them under the path that answered instead.
func (r *Relaxer) TruncatedDeclines() uint64 { return r.matTruncated.Load() }

// GeometryCounts reports where the kernel's geometries have come from since
// the relaxer was built — requests its memo answered, concepts it walked for
// the first time, walks redone for a wider target, requests that scored a view
// of the candidate index (which the memo never holds), entries evicted, and the
// bytes the memo holds now — and the IC planes the relaxer holds, one per query
// context asked, with their bytes.
func (r *Relaxer) GeometryCounts() (hits, fills, refills, mapped, evictions uint64, bytes int64, planes int, planeBytes int64) {
	if m := r.planes.Load(); m != nil {
		planes = len(*m)
	}
	return r.geoHits.Load(), r.geoFills.Load(), r.geoRefills.Load(), r.geoMapped.Load(), r.geo.evictions.Load(), r.geo.weight(),
		planes, int64(planes) * int64(len(r.ing.icDomain)) * 8
}

// WalkedNodes reports the graph nodes the relaxer's geometry walks — its
// fills and refills — have entered since it was built: the sum of their
// relax.kernel spans' reached tags.
func (r *Relaxer) WalkedNodes() uint64 { return r.geoEntered.Load() }

// NewRelaxer builds the online phase. sim decides which variant runs (full
// QR, no-context, no-corpus, IC baseline); mapper resolves query terms to
// external concepts and is typically the same one used during ingestion.
func NewRelaxer(ing *Ingestion, sim *Similarity, mapper match.Mapper, opts RelaxOptions) *Relaxer {
	return &Relaxer{ing: ing, sim: sim, mapper: mapper, opts: opts.withDefaults(), geo: newWeightedLRU[*geometry](geometryBudget)}
}

// Request is one relaxation request in core's vocabulary: a query term (or an
// already-mapped concept), the typed query context, and k.
type Request struct {
	// Term is resolved through the relaxer's mapper; an unmappable term is
	// answered with an error wrapping ErrUnknownTerm. Under UseConcept it is
	// not resolved and only names the request on its kernel span.
	Term string
	// Concept is relaxed directly, skipping term mapping, when UseConcept is
	// set.
	Concept    eks.ConceptID
	UseConcept bool
	// Ctx is the optional query context (nil: context-free).
	Ctx *ontology.Context
	// K bounds the distinct KB instances consumed: Algorithm 2 keeps popping
	// ranked candidates until at least K instances are collected (or
	// candidates run out). K <= 0 returns the full ranked candidate list —
	// every flagged concept within the (possibly dynamically grown) radius.
	K int
	// Err marks a request its caller could not build (a context string that
	// did not parse). The relaxer answers it with this error and does no work,
	// so a batch stays positional without a placeholder query.
	Err error
}

// Response answers one Request: the ranked candidates consumed, best first
// (ties by concept ID), the compute path that supplied them (meaningful only
// when Err is nil), or the failure. Err wraps ErrUnknownTerm for an unmappable
// term and the context's error when the deadline fired mid-traversal. Decline
// is why the materialized store, holding an entry for the query, passed it on
// to Path: DeclineTruncated or empty.
type Response struct {
	Results []Result
	Path    ServePath
	Decline string
	Err     error
}

// DeclineTruncated is the Decline of a request whose materialized entry was
// cut at MaterializeOptions.MaxPerQuery before it could prove the request's k.
const DeclineTruncated = "truncated"

// Relax answers one request. ctx carries the request's deadline — checked
// between radius-growth rounds and periodically during candidate scoring, so
// an expired request stops mid-flight — and, for a sampled request, the span
// its relax.kernel child hangs under; an untraced request pays one context
// lookup for that and nothing else.
func (r *Relaxer) Relax(ctx context.Context, req Request) Response {
	return r.relax(ctx, req, trace.FromContext(ctx), &relaxScratch{})
}

// RelaxBatch answers requests in input order; response i always answers
// request i, so output is deterministic for a deterministic batch. The
// per-query working state is allocated once and reused across items, which is
// what makes a batch cheaper than n calls of Relax. The deadline is honoured
// between items and inside each item's traversal; once ctx fires, every
// remaining item reports the context error.
func (r *Relaxer) RelaxBatch(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	sc := &relaxScratch{}
	parent := trace.FromContext(ctx)
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			for j := i; j < len(reqs); j++ {
				out[j].Err = cmp.Or(reqs[j].Err, fmt.Errorf("core: relaxation aborted before request %d of %d: %w", j+1, len(reqs), err))
			}
			return out
		}
		out[i] = r.relax(ctx, req, parent, sc)
	}
	return out
}

// relax is the one body behind every entry point: map the term, open the
// kernel span when the request is sampled, and ask the stores and the kernel.
func (r *Relaxer) relax(ctx context.Context, req Request, parent *trace.Span, sc *relaxScratch) Response {
	if req.Err != nil {
		return Response{Err: req.Err}
	}
	q := req.Concept
	if !req.UseConcept {
		var ok bool
		if q, ok = r.mapper.Map(req.Term); !ok {
			return Response{Err: fmt.Errorf("core: query term %q: %w", req.Term, ErrUnknownTerm)}
		}
	}
	sp := parent.StartChild("relax.kernel") // nil when the request is not sampled
	sp.SetTag("term", req.Term)
	results, path, err := r.relaxConceptPath(ctx, q, req.Ctx, req.K, sc)
	if sp != nil {
		endKernelSpan(sp, path, sc.stats, err)
	}
	return Response{results, path, sc.stats.decline, err}
}

// RelaxTerm is Relax of a term without a deadline.
func (r *Relaxer) RelaxTerm(term string, ctx *ontology.Context, k int) ([]Result, error) {
	resp := r.Relax(context.Background(), Request{Term: term, Ctx: ctx, K: k})
	return resp.Results, resp.Err
}

// RelaxConcept is Relax of an already-mapped concept without a deadline,
// which cannot fail.
func (r *Relaxer) RelaxConcept(q eks.ConceptID, ctx *ontology.Context, k int) []Result {
	return r.Relax(context.Background(), Request{Concept: q, UseConcept: true, Ctx: ctx, K: k}).Results
}

// RelaxTermContextTraced spells Relax the way bench/ calls it.
func (r *Relaxer) RelaxTermContextTraced(ctx context.Context, term string, qctx *ontology.Context, k int) ([]Result, ServePath, error) { // bench contract
	resp := r.Relax(ctx, Request{Term: term, Ctx: qctx, K: k})
	return resp.Results, resp.Path, resp.Err
}

// kernelStats is what one kernel run did, for the sampled request's span:
// the radius it stopped at, the graph nodes its walk entered (the
// skeleton's, not every node within the radius — see flaggedFrontier; none on
// the materialized path, none when the concept's geometry was in the memo or
// a view of the candidate index), the candidates it scored, and where the
// geometry came from: the memo ("hit"), a walk ("fill", or "refill" when it
// replaces a geometry that fell short) or, on the indexed path, the index's
// columns ("mapped"); decline is the Response's.
type kernelStats struct {
	radius, reached, scored int
	geometry, decline       string
}

// endKernelSpan tags a relax.kernel span with the run's outcome and ends it.
func endKernelSpan(sp *trace.Span, path ServePath, st kernelStats, err error) {
	sp.SetTag("path", path.MetricName())
	sp.SetTag("radius", strconv.Itoa(st.radius))
	sp.SetTag("reached", strconv.Itoa(st.reached))
	sp.SetTag("scored", strconv.Itoa(st.scored))
	if st.geometry != "" {
		sp.SetTag("geometry", st.geometry)
	}
	if st.decline != "" {
		sp.SetTag("decline", st.decline)
	}
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

// relaxScratch holds the per-query working state that batch relaxation
// reuses across items: the walk's candidate and per-radius count buffers, the
// view of the candidate index with its level ends and counts, the scorer's
// buffers, the instance-dedup set of the paths that consume stored rankings,
// and the stats of the last kernel run. Returned Result slices are
// always freshly allocated — only the intermediate state is shared.
type relaxScratch struct {
	seen    map[kb.InstanceID]bool
	hits    []flaggedHit
	counts  []int32
	view    geometry
	levels  []int32
	weights []float64
	scored  []scoredHit
	stats   kernelStats
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

// relaxConceptPath asks the materialized store and then the kernel, and
// reports which path answered. All three paths produce byte-identical
// results; a store that cannot prove identity for this query declines and
// the next one runs. k <= 0 asks for the full ranked candidate list.
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
	out, path, err := r.rankedPath(ctx, q, qctx, k, target, sc)
	if err != nil {
		return nil, path, err
	}
	if path == PathIndexed {
		r.pathIndexed.Add(1)
	} else {
		r.pathLive.Add(1)
	}
	return out, path, nil
}

// rankedPath is the kernel: the query concept's geometry — memoised, a view of
// the candidate index, or walked and derived now — cut to the radius this
// request's target stops at, scored under the query context and ranked. The
// geometry is per concept, the scoring per (concept, context, k); the path is
// the geometry's source.
func (r *Relaxer) rankedPath(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, k, target int, sc *relaxScratch) ([]Result, ServePath, error) {
	g, err := r.memoGeometry(ctx, q, target, sc)
	if err != nil {
		return nil, PathLive, err
	}
	path := PathLive
	if g.indexed {
		path = PathIndexed
	}
	radius, err := r.stopRadius(ctx, g.counts, target)
	if err != nil {
		return nil, path, err
	}
	sc.stats.radius = radius
	scored, err := r.scoreGeometry(ctx, q, qctx, g, radius, sc)
	if err != nil {
		return nil, path, err
	}
	return r.rankResults(scored, k), path, nil
}

// takeForKInstances keeps consuming ranked candidates until at least k
// distinct KB instances are collected (or candidates run out). Instances
// are deduplicated across candidates, so an instance reachable through
// several candidate concepts is counted once.
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

// scoreCheckInterval is how many candidate scorings happen between context
// checks: similarity scoring dominates online latency, so the deadline is
// polled often enough to stop promptly but not on every candidate.
const scoreCheckInterval = 64

// flaggedHit is one candidate of the walk: a flagged concept, as its slot in
// the flagged set, and its hop distance from the query concept.
type flaggedHit struct {
	slot, hops int32
}

// maxRadius is how far a walk may go: the base radius, or under
// DynamicRadius the growth ceiling.
func (r *Relaxer) maxRadius() int {
	if r.opts.DynamicRadius {
		return r.opts.MaxRadius
	}
	return r.opts.Radius
}

// gatherFlagged is Algorithm 2 line 2 with the paper's "dynamically decided"
// radius: it walks the flagged frontier from q out to opts.Radius and then,
// under DynamicRadius, one more hop per growth round while the candidates so
// far supply fewer than target distinct KB instances, up to MaxRadius. Each
// round pays for its new level only. An instance is mapped to one concept
// (NewFlatIngestion checks it) and a walk reaches a concept once, so the
// distinct instances of the candidates are the sum of their instance spans
// and growth stops exactly when target distinct results are reachable. Under
// IncludeSelf the flagged query concept is the first hit, at hop 0, and its
// instances count toward the target.
//
// hits come back in hop-ascending order; counts[i] is the number of distinct
// instances within radius opts.Radius+i, one per radius walked, so the walk
// stopped at opts.Radius+len(counts)-1. Both slices alias the scratch.
// reached is the number of graph nodes the walk entered.
func (r *Relaxer) gatherFlagged(ctx context.Context, q eks.ConceptID, target int, sc *relaxScratch) (hits []flaggedHit, counts []int32, reached int, err error) {
	hits, counts = sc.hits[:0], sc.counts[:0]
	instances := 0
	add := func(slot, hops int32) {
		hits = append(hits, flaggedHit{slot: slot, hops: hops})
		instances += r.ing.instanceCount(slot)
	}
	if slot, flagged := r.ing.flaggedSlot(q); flagged && r.opts.IncludeSelf {
		add(slot, 0)
	}
	f, known := r.ing.flaggedFrontier(q)
	defer f.Close()
	for hops, maxR := 1, r.maxRadius(); hops <= maxR; hops++ {
		if hops > r.opts.Radius && instances >= target {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, fmt.Errorf("core: relaxation aborted at radius %d: %w", hops, err)
		}
		if known {
			for _, slot := range f.Advance() {
				add(slot, int32(hops))
			}
		}
		if hops >= r.opts.Radius {
			counts = append(counts, int32(instances))
		}
	}
	sc.hits, sc.counts = hits, counts
	if known {
		reached = f.Reached()
	}
	return hits, counts, reached, nil
}

// stopRadius derives the radius Algorithm 2 stops at for target from
// per-radius distinct-instance counts, step for step as gatherFlagged's walk
// decides it — the deadline polled once a hop, as the walk polls it — so an
// answer read from stored counts (a memoised geometry, a materialized entry)
// stops where the walk would.
func (r *Relaxer) stopRadius(ctx context.Context, counts []int32, target int) (int, error) {
	maxR := r.maxRadius()
	for hops := 1; hops <= maxR; hops++ {
		if hops > r.opts.Radius && int(counts[hops-1-r.opts.Radius]) >= target {
			return hops - 1, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("core: relaxation aborted at radius %d: %w", hops, err)
		}
	}
	return maxR, nil
}

// scoredHit is one candidate after Equation 5 and before ranking.
type scoredHit struct {
	score      float64
	slot, hops int32
}

// rankResults turns scored hits into the answer. k <= 0 returns them all,
// ranked. k > 0 returns the ranked prefix that covers k distinct KB instances
// (or every hit, when they hold fewer) — the hits are distinct concepts and
// an instance is mapped to one, so their spans add up to distinct instances,
// as in gatherFlagged. Every flagged concept holds an instance, so that prefix
// is at most k hits long, and it is read from rankedPrefix's k best: the
// Results built — and the sorting done — follow the answer rather than the
// candidate set. scored is reordered.
func (r *Relaxer) rankResults(scored []scoredHit, k int) []Result {
	result := func(h scoredHit) Result {
		id, instances := r.ing.flaggedAt(h.slot)
		return Result{Concept: id, Score: h.score, Hops: int(h.hops), Instances: instances}
	}
	if k <= 0 {
		slices.SortFunc(scored, rankScored)
		out := make([]Result, len(scored))
		for i, h := range scored {
			out[i] = result(h)
		}
		return out
	}
	if len(scored) == 0 {
		return nil
	}
	kept := rankedPrefix(scored, k)
	out := make([]Result, 0, len(kept))
	for instances := 0; len(out) < len(kept) && instances < k; {
		res := result(kept[len(out)])
		out = append(out, res)
		instances += len(res.Instances)
	}
	return out
}

// rankedPrefix returns the n best of scored in ranking order, reordering
// scored. It is a selection, not a sort of everything: one pass keeps the n
// best seen so far in a worst-first heap at the front of scored, where a hit
// that does not beat the root — the worst kept — costs one comparison, and
// the n kept are then sorted in place by popping the heap's worst to its end.
// rankOrder being a total order, the result is the sorted prefix bit for bit.
func rankedPrefix(scored []scoredHit, n int) []scoredHit {
	if n >= len(scored) {
		slices.SortFunc(scored, rankScored)
		return scored
	}
	if n <= 0 {
		return scored[:0]
	}
	h := scored[:n]
	for i := n/2 - 1; i >= 0; i-- {
		siftWorst(h, i)
	}
	for _, x := range scored[n:] {
		if outranks(x, h[0]) {
			h[0] = x
			siftWorst(h, 0)
		}
	}
	for m := n - 1; m > 0; m-- {
		h[0], h[m] = h[m], h[0]
		siftWorst(h[:m], 0)
	}
	return h
}

// siftWorst restores the worst-first heap order of h below position i.
func siftWorst(h []scoredHit, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && outranks(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && outranks(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// outranks reports rankScored(a, b) < 0 without the three-way compares when
// both scores are ordered: the higher score wins, and equal scores — ±0
// among them, about half of a materialized concept's hits scoring exactly 0 —
// leave it to the slot. A NaN falls back to rankScored.
func outranks(a, b scoredHit) bool {
	switch {
	case a.score > b.score:
		return true
	case a.score < b.score:
		return false
	case a.score == b.score:
		return a.slot < b.slot
	}
	return rankScored(a, b) < 0
}

// rankScored is rankOrder over scored hits: the flagged set is ascending, so
// slots order as their concepts do.
func rankScored(a, b scoredHit) int { return rankOrder(a.score, b.score, a.slot, b.slot) }

// rankOrder is the final ranking: score descending, ties by ascending
// concept — a total order over distinct candidates.
func rankOrder[C cmp.Ordered](sa, sb float64, ca, cb C) int {
	return cmp.Or(cmp.Compare(sb, sa), cmp.Compare(ca, cb))
}

// defaultCandidateTarget is the dynamic-radius growth target when the
// caller did not bound k: keep widening until this many KB instances are
// reachable (or MaxRadius is hit).
const defaultCandidateTarget = 10
