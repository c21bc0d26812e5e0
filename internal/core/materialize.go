package core

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"math"
	"slices"
	"sort"
	"sync"

	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

// Materialized holds offline-computed relaxation answers for the head of
// the (query concept, context) distribution — the zipfian head the corpus
// frequency tables identify. Each entry stores the scored candidate set at
// the maximum reachable radius, sorted by the final ranking order, plus the
// per-radius distinct-instance counts that drive dynamic radius growth; at
// query time the stopping radius is derived from the counts exactly as the
// live traversal derives it, the stored order is filtered to that radius
// (the comparator ignores hops, so a filtered sorted list is the sorted
// filtered list), and candidates are consumed until k distinct instances —
// byte-identical output with no traversal, no scoring, and no sort.
//
// Entries are valid only under the RelaxOptions they were built with;
// SetMaterialized refuses a store whose options differ from the relaxer's.
type Materialized struct {
	d FlatMaterializedData
	// flagged is the flagged set of the ingestion the store was built over,
	// which the candidates' slots index; SetMaterialized refuses a relaxer
	// over another.
	flagged []eks.ConceptID
	// concepts is the number of distinct query concepts, counted once when
	// the store is assembled.
	concepts int
}

// FlatMaterializedData is the column layout of a Materialized store, which
// is also the layout of the materialized sections of a flat (v4) bundle:
// entries sorted by (concept, context key) as per-entry scalar columns plus
// CSR spans into the shared counts and candidate pools. A candidate is 12
// bytes in two parallel columns: its final score, and its slot in the
// ingestion's flagged set packed over its hop distance. Slices handed to
// OpenFlatMaterialized may alias a memory mapping; they are never mutated.
type FlatMaterializedData struct {
	Relax      RelaxOptions
	Concepts   []eks.ConceptID // per entry, sorted by (concept, ctx)
	Ctxs       []string        // parallel context keys
	Complete   []int32         // 1 = complete entry
	CountOff   []int32         // len+1, CSR into Counts
	Counts     []int32
	CandOff    []int32   // len+1, CSR into CandScores and CandSlots
	CandScores []float64 // descending within an entry
	CandSlots  []uint32  // parallel: flagged slot<<8 | hops
}

// A candidate's hop distance takes the low byte of its CandSlots word and its
// flagged slot the other 24 bits; MaterializeTopK refuses what does not fit.
const (
	matHopBits  = 8
	matMaxHops  = 1<<matHopBits - 1
	matMaxSlots = 1 << (32 - matHopBits)
)

// packMatCand is a candidate's CandSlots word; slot and hops must fit their
// fields.
func packMatCand(slot, hops int32) uint32 { return uint32(slot)<<matHopBits | uint32(hops) }

func unpackMatCand(c uint32) (slot int32, hops int) {
	return int32(c >> matHopBits), int(c & matMaxHops)
}

// matEntry is a value view of one entry; its slices alias the store's pools
// and must not be mutated.
type matEntry struct {
	// complete is true when the full candidate set fit under MaxPerQuery;
	// an incomplete entry can only serve queries whose k is satisfied
	// within the stored prefix.
	complete bool
	// counts[i] is the number of distinct KB instances reachable through
	// candidates within radius opts.Radius+i, computed over the full
	// (untruncated) candidate set — the exact quantity the live walk checks
	// against its target after each growth round.
	counts []int32
	// scores and cands are the candidate set at the maximum radius, sorted by
	// (score descending, concept ascending) — the final ranking order; slots
	// order as their concepts do.
	scores []float64
	cands  []uint32
}

// MaterializeOptions tunes the offline top-k materialization.
type MaterializeOptions struct {
	// Enabled turns the build on inside Ingest.
	Enabled bool
	// Relax must mirror the serving relaxer's options — radius growth and
	// self-inclusion are baked into the stored entries. Zero values default
	// like engine serving does (radius 3, dynamic growth to 8).
	Relax RelaxOptions
	// HeadFraction selects the top fraction of flagged concepts by
	// aggregate corpus frequency (ties by ID). Default 0.25.
	HeadFraction float64
	// HeadMax caps the head size regardless of fraction. Default 1024;
	// negative means unlimited.
	HeadMax int
	// MaxPerQuery caps each entry's stored candidate list; a truncated
	// entry still serves any k it can prove satisfied and declines to the
	// kernel otherwise. Default 64; negative means unlimited. An entry is as
	// deep as a request can consume: 64 is the smallest depth at which no
	// entry of either bench world (w100k: 13,924 entries, w2k: 16,992) declines
	// a k <= 50 — each proves it inside its first 50 and 35 candidates — and a
	// decline costs one ~0.1 ms scoring of the concept's geometry, not the
	// 17 ms traversal the earlier 256 was sized against.
	MaxPerQuery int
	// Contexts are the query contexts materialized besides the
	// context-free (nil) entry every head concept gets.
	Contexts []ontology.Context
	// Workers is the build parallelism; 0 follows GOMAXPROCS. Deterministic
	// for every value.
	Workers int
}

func (o MaterializeOptions) withDefaults() MaterializeOptions {
	o.Relax = o.Relax.withDefaults()
	if o.HeadFraction <= 0 {
		o.HeadFraction = 0.25
	}
	if o.HeadFraction > 1 {
		o.HeadFraction = 1
	}
	if o.HeadMax == 0 {
		o.HeadMax = 1024
	}
	if o.MaxPerQuery == 0 {
		o.MaxPerQuery = 64
	}
	return o
}

// ctxKey is the context key entries are stored and looked up under; the
// context-free query has the empty key.
func ctxKey(ctx *ontology.Context) string {
	if ctx == nil {
		return ""
	}
	return ctx.String()
}

// headConcepts ranks the flagged concepts by aggregate corpus frequency
// (descending, ties by ascending ID) and takes the configured head.
func headConcepts(ing *Ingestion, opts MaterializeOptions) []eks.ConceptID {
	ids := ing.FlaggedIDs()
	slices.SortFunc(ids, func(a, b eks.ConceptID) int {
		var fa, fb float64
		if ing.Frequencies != nil {
			fa, fb = ing.Frequencies.RawAggregate(a), ing.Frequencies.RawAggregate(b)
		}
		return rankOrder(fa, fb, a, b)
	})
	n := int(math.Ceil(opts.HeadFraction * float64(len(ids))))
	if opts.HeadMax > 0 && n > opts.HeadMax {
		n = opts.HeadMax
	}
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// MaterializeTopK builds the store over the frequency head of the flagged
// concepts. It runs once, offline, after Ingest; sim must evaluate over the
// same frozen graph and frequency table the online phase will use. A world
// whose candidates the columns cannot hold — a hop ceiling past a byte, a
// flagged set past the slot field — gets no store (nil), logged, and serves
// live.
func MaterializeTopK(ing *Ingestion, sim *Similarity, opts MaterializeOptions) *Materialized {
	opts = opts.withDefaults()
	ropts := opts.Relax
	if ropts.MaxRadius > matMaxHops || ing.FlaggedCount() > matMaxSlots {
		log.Printf("core: not materializing: max radius %d (limit %d) or %d flagged concepts (limit %d) does not fit a stored candidate",
			ropts.MaxRadius, matMaxHops, ing.FlaggedCount(), matMaxSlots)
		return nil
	}
	head := headConcepts(ing, opts)

	// Entries are stored in (concept, context key) order, so the contexts
	// are put in key order once; one listed twice is materialized once. The
	// context-free query has the empty key and sorts first.
	ctxs := make([]*ontology.Context, 0, len(opts.Contexts)+1)
	ctxs = append(ctxs, nil)
	for i := range opts.Contexts {
		ctxs = append(ctxs, &opts.Contexts[i])
	}
	slices.SortFunc(ctxs, func(a, b *ontology.Context) int { return cmp.Compare(ctxKey(a), ctxKey(b)) })
	ctxs = slices.CompactFunc(ctxs, func(a, b *ontology.Context) bool { return ctxKey(a) == ctxKey(b) })

	built := make([][]matEntry, len(head)) // per head concept, parallel to ctxs

	workers := resolveParallelism(opts.Workers)
	if workers > len(head) {
		workers = len(head)
	}
	if workers < 1 {
		workers = 1
	}
	relaxer := NewRelaxer(ing, sim, nil, ropts)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &relaxScratch{}
			for i := range next {
				built[i] = materializeConcept(relaxer, head[i], ctxs, opts, sc)
			}
		}()
	}
	for i := range head {
		next <- i
	}
	close(next)
	wg.Wait()

	// Assemble the columns in (concept, context key) order.
	byConcept := make([]int, len(head))
	for i := range byConcept {
		byConcept[i] = i
	}
	slices.SortFunc(byConcept, func(a, b int) int { return cmp.Compare(head[a], head[b]) })
	// The columns are sized before they are filled: growing by append copies
	// the candidate pool about five times over into memory fresh from the OS,
	// a third of the build's wall time at 100k concepts and its least steady
	// part.
	var entries, counts, cands int
	for _, es := range built {
		entries += len(es)
		for _, e := range es {
			counts += len(e.counts)
			cands += len(e.cands)
		}
	}
	d := FlatMaterializedData{
		Relax:      ropts,
		Concepts:   make([]eks.ConceptID, 0, entries),
		Ctxs:       make([]string, 0, entries),
		Complete:   make([]int32, 0, entries),
		CountOff:   append(make([]int32, 0, entries+1), 0),
		Counts:     make([]int32, 0, counts),
		CandOff:    append(make([]int32, 0, entries+1), 0),
		CandScores: make([]float64, 0, cands),
		CandSlots:  make([]uint32, 0, cands),
	}
	for _, i := range byConcept {
		for j, e := range built[i] {
			d.appendEntry(head[i], ctxKey(ctxs[j]), e)
		}
	}
	return newMaterialized(d, ing.maps.Flagged)
}

// appendEntry adds one entry to the columns; callers append in (concept,
// context key) order.
func (d *FlatMaterializedData) appendEntry(concept eks.ConceptID, ctx string, e matEntry) {
	d.Concepts = append(d.Concepts, concept)
	d.Ctxs = append(d.Ctxs, ctx)
	complete := int32(0)
	if e.complete {
		complete = 1
	}
	d.Complete = append(d.Complete, complete)
	d.Counts = append(d.Counts, e.counts...)
	d.CountOff = append(d.CountOff, int32(len(d.Counts)))
	d.CandScores = append(d.CandScores, e.scores...)
	d.CandSlots = append(d.CandSlots, e.cands...)
	d.CandOff = append(d.CandOff, int32(len(d.CandSlots)))
}

// materializeConcept builds one head concept's entries for every context:
// the full candidate set at the maximum radius, per-radius instance counts,
// and the per-context scored rankings. The candidates, counts and meets are
// the live kernel's geometry of q, walked to the maximum radius and kept out
// of the memo; the kernel's scorer runs over it once per context.
func materializeConcept(r *Relaxer, q eks.ConceptID, ctxs []*ontology.Context, opts MaterializeOptions, sc *relaxScratch) []matEntry {
	// Background never cancels, so the error paths are unreachable here.
	bg := context.Background()
	g, _ := r.geometry(bg, q, math.MaxInt, sc)
	out := make([]matEntry, 0, len(ctxs))
	for _, ctx := range ctxs {
		scored, _ := r.scoreGeometry(bg, q, ctx, g, len(g.levelEnd)-1, sc)
		n := len(scored)
		if opts.MaxPerQuery > 0 && n > opts.MaxPerQuery {
			n = opts.MaxPerQuery
		}
		e := matEntry{complete: n == len(scored), counts: g.counts}
		scored = rankedPrefix(scored, n)
		e.scores, e.cands = make([]float64, len(scored)), make([]uint32, len(scored))
		for i, h := range scored {
			e.scores[i], e.cands[i] = h.score, packMatCand(h.slot, h.hops)
		}
		out = append(out, e)
	}
	return out
}

// materializedServe answers from the store when it can prove the answer
// identical to the live traversal; ok=false declines and the caller falls
// through: silently when the store has no entry, through declineTruncated when
// it has one too shallow for this k.
// The stopping radius is derived from the stored per-radius instance counts
// exactly as the live traversal's growth loop derives it (stopRadius); the
// stored max-radius ranking filtered to that radius is the radius ranking
// because the comparator ignores hops.
func (r *Relaxer) materializedServe(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, k, target int, sc *relaxScratch) ([]Result, bool, error) {
	e, found := r.mat.get(q, ctxKey(qctx))
	if !found {
		return nil, false, nil
	}
	radius, err := r.stopRadius(ctx, e.counts, target)
	if err != nil {
		return nil, false, err
	}
	sc.stats.radius = radius
	if k <= 0 {
		// Full ranked list requested: only a complete entry holds it.
		if !e.complete {
			return r.declineTruncated(sc)
		}
		out := make([]Result, 0, len(e.cands))
		for i, c := range e.cands {
			slot, hops := unpackMatCand(c)
			if hops > radius {
				continue
			}
			id, instances := r.ing.flaggedAt(slot)
			out = append(out, Result{Concept: id, Score: e.scores[i], Hops: hops, Instances: instances})
		}
		return out, true, nil
	}
	seen := sc.resetSeen()
	var out []Result
	for i, c := range e.cands {
		slot, hops := unpackMatCand(c)
		if hops > radius {
			continue
		}
		if len(seen) >= k {
			return out, true, nil
		}
		id, instances := r.ing.flaggedAt(slot)
		out = append(out, Result{Concept: id, Score: e.scores[i], Hops: hops, Instances: instances})
		for _, iid := range instances {
			seen[iid] = true
		}
	}
	if len(seen) < k && !e.complete {
		// The stored prefix ran out before k was satisfied and truncation
		// hides whether more candidates exist — only the kernel can answer.
		return r.declineTruncated(sc)
	}
	return out, true, nil
}

// declineTruncated is materializedServe declining a request whose entry exists
// but was cut at MaxPerQuery before it could prove k: counted, and named on
// the request's response and kernel span, so traffic asking deeper than the
// store was built shows instead of quietly costing a scoring.
func (r *Relaxer) declineTruncated(sc *relaxScratch) ([]Result, bool, error) {
	r.matTruncated.Add(1)
	sc.stats.decline = DeclineTruncated
	return nil, false, nil
}

// get binary-searches the sorted (concept, ctx) entries and returns a value
// view whose slices alias the pools.
func (m *Materialized) get(concept eks.ConceptID, ctx string) (matEntry, bool) {
	d := &m.d
	i := sort.Search(len(d.Concepts), func(i int) bool {
		if d.Concepts[i] != concept {
			return d.Concepts[i] > concept
		}
		return d.Ctxs[i] >= ctx
	})
	if i >= len(d.Concepts) || d.Concepts[i] != concept || d.Ctxs[i] != ctx {
		return matEntry{}, false
	}
	return m.entry(i), true
}

func (m *Materialized) entry(i int) matEntry {
	d := &m.d
	return matEntry{
		complete: d.Complete[i] != 0,
		counts:   d.Counts[d.CountOff[i]:d.CountOff[i+1]],
		scores:   d.CandScores[d.CandOff[i]:d.CandOff[i+1]],
		cands:    d.CandSlots[d.CandOff[i]:d.CandOff[i+1]],
	}
}

// Options reports the RelaxOptions the store was built under.
func (m *Materialized) Options() RelaxOptions { return m.d.Relax }

// Entries reports the number of (concept, context) entries.
func (m *Materialized) Entries() int { return len(m.d.Concepts) }

// Concepts reports the number of distinct materialized query concepts.
func (m *Materialized) Concepts() int { return m.concepts }

// FlatData returns the store's columns, the form a flat bundle stores. The
// slices alias the store and must not be modified; over a mapped bundle they
// are valid only while the Ingestion that was loaded is reachable — they point
// into its mapping and pin nothing (see Ingestion.Backing).
func (m *Materialized) FlatData() FlatMaterializedData { return m.d }

// OpenFlatMaterialized adopts materialized columns as a *Materialized over
// the flagged set their slots index, enforcing the invariants serving relies
// on: normalized options, the per-entry radius-count span, strictly ascending
// (concept, context) keys, in-range hop distances and slots, and final
// ranking order.
func OpenFlatMaterialized(d FlatMaterializedData, flagged []eks.ConceptID) (*Materialized, error) {
	opts := d.Relax.withDefaults()
	if d.Relax != opts {
		return nil, fmt.Errorf("core: materialized store has non-normalized relax options %+v", d.Relax)
	}
	if opts.MaxRadius > matMaxHops || len(flagged) > matMaxSlots {
		return nil, fmt.Errorf("core: materialized store: max radius %d or %d flagged concepts does not fit a stored candidate", opts.MaxRadius, len(flagged))
	}
	wantCounts := opts.MaxRadius - opts.Radius + 1
	if !opts.DynamicRadius {
		wantCounts = 1
	}
	n := len(d.Concepts)
	if len(d.Ctxs) != n || len(d.Complete) != n {
		return nil, fmt.Errorf("core: materialized store: %d concepts, %d contexts, %d flags", n, len(d.Ctxs), len(d.Complete))
	}
	if err := checkCSR32("materialized counts", n, d.CountOff, len(d.Counts)); err != nil {
		return nil, err
	}
	if err := checkCSR32("materialized candidates", n, d.CandOff, len(d.CandSlots)); err != nil {
		return nil, err
	}
	if len(d.CandScores) != len(d.CandSlots) {
		return nil, fmt.Errorf("core: materialized store: %d candidate scores, %d slots", len(d.CandScores), len(d.CandSlots))
	}
	maxHops, slots := uint32(opts.MaxRadius), uint32(len(flagged))
	for i := 0; i < n; i++ {
		if i > 0 {
			if d.Concepts[i] < d.Concepts[i-1] ||
				(d.Concepts[i] == d.Concepts[i-1] && d.Ctxs[i] <= d.Ctxs[i-1]) {
				return nil, fmt.Errorf("core: materialized entries not strictly ascending at %d", i)
			}
		}
		if int(d.CountOff[i+1]-d.CountOff[i]) != wantCounts {
			return nil, fmt.Errorf("core: materialized entry (%d, %q) has %d radius counts, want %d",
				d.Concepts[i], d.Ctxs[i], d.CountOff[i+1]-d.CountOff[i], wantCounts)
		}
		// Slots order as their concepts do, so ranking order reads off the
		// packed words.
		scores, cands := d.CandScores[d.CandOff[i]:d.CandOff[i+1]], d.CandSlots[d.CandOff[i]:d.CandOff[i+1]]
		for j, c := range cands {
			if c>>matHopBits >= slots {
				return nil, fmt.Errorf("core: materialized candidate %d of (%d, %q) names flagged slot %d of %d",
					j, d.Concepts[i], d.Ctxs[i], c>>matHopBits, slots)
			}
			if c&matMaxHops > maxHops {
				return nil, fmt.Errorf("core: materialized candidate %d of (%d, %q) at %d hops exceeds max radius %d",
					flagged[c>>matHopBits], d.Concepts[i], d.Ctxs[i], c&matMaxHops, opts.MaxRadius)
			}
			if j > 0 && (scores[j] > scores[j-1] || (scores[j] == scores[j-1] && c>>matHopBits <= cands[j-1]>>matHopBits)) {
				return nil, fmt.Errorf("core: materialized entry (%d, %q) not in ranking order at %d", d.Concepts[i], d.Ctxs[i], j)
			}
		}
	}
	return newMaterialized(d, flagged), nil
}

func newMaterialized(d FlatMaterializedData, flagged []eks.ConceptID) *Materialized {
	m := &Materialized{d: d, flagged: flagged}
	for i, c := range d.Concepts {
		if i == 0 || c != d.Concepts[i-1] {
			m.concepts++
		}
	}
	return m
}
