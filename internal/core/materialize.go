package core

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"medrelax/internal/eks"
	"medrelax/internal/ontology"
	"medrelax/internal/strtab"
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
// Contexts that subsume the same corpus labels — one evidence class, the
// context-free query among those that subsume none — give every concept the
// same IC and so the same ranking: MaterializeTopK computes it once per head
// concept and class, stores it once as a ranking, and points the entry of each
// context of the class at it.
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
	// rankings and scored are the work MaterializeTopK did for the store: the
	// rankings it selected and stored, one per head concept and evidence
	// class, and the hits it scored for them. A store opened from columns did
	// none.
	rankings, scored int
}

// FlatMaterializedData is the column layout of a Materialized store, which
// is also the layout of the materialized sections of a flat (v4) bundle. It
// has two levels. Entry rows, sorted by (concept, context key), name the
// ranking that answers them. Ranking rows hold what is identical across an
// evidence class: the complete flag and CSR spans into the shared counts and
// candidate pools. Rankings are numbered in the order entries first use them,
// and each serves the entries of one concept, so a store has one layout. A
// candidate is 12 bytes in two parallel columns: its final score, and its slot
// in the ingestion's flagged set packed over its hop distance. Slices handed
// to OpenFlatMaterialized may alias a memory mapping, as may the context
// column; they are never mutated.
type FlatMaterializedData struct {
	Relax    RelaxOptions
	Concepts []eks.ConceptID // per entry, sorted by (concept, ctx)
	Ctxs     strtab.Column   // parallel context keys
	Ranking  []int32         // parallel: the entry's ranking row
	// Ranking rows.
	Complete   []int32 // 1 = complete ranking
	CountOff   []int32 // rankings+1, CSR into Counts
	Counts     []int32
	CandOff    []int32   // rankings+1, CSR into CandScores and CandSlots
	CandScores []float64 // descending within a ranking
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

// matEntry is a value view of one ranking, and so of every entry that names
// it; its slices alias the store's pools and must not be mutated.
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
	// context-free (nil) entry every head concept gets. Each is stored as an
	// entry of its own, but contexts of one evidence class (see Materialized)
	// are scored, ranked and stored once.
	Contexts []ontology.Context
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
	ctxs := materializedContexts(opts)
	class := evidenceClasses(sim, ctxs)

	built := make([][]matEntry, len(head)) // per head concept, parallel to ctxs

	workers := max(min(runtime.GOMAXPROCS(0), len(head)), 1)
	relaxer := NewRelaxer(ing, sim, nil, ropts)
	var wg sync.WaitGroup
	var scored atomic.Int64
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &relaxScratch{}
			for i := range next {
				var hits int
				built[i], hits = materializeConcept(relaxer, head[i], ctxs, class, opts, sc)
				scored.Add(int64(hits))
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
	// part. Only a class's first context (class[j] == j) holds a ranking.
	var rankings, counts, cands int
	for _, es := range built {
		for j, e := range es {
			if class[j] == j {
				rankings++
				counts += len(e.counts)
				cands += len(e.cands)
			}
		}
	}
	entries := len(head) * len(ctxs)
	d := FlatMaterializedData{
		Relax:      ropts,
		Concepts:   make([]eks.ConceptID, 0, entries),
		Ranking:    make([]int32, 0, entries),
		Complete:   make([]int32, 0, rankings),
		CountOff:   append(make([]int32, 0, rankings+1), 0),
		Counts:     make([]int32, 0, counts),
		CandOff:    append(make([]int32, 0, rankings+1), 0),
		CandScores: make([]float64, 0, cands),
		CandSlots:  make([]uint32, 0, cands),
	}
	keys, rank := make([]string, len(ctxs)), make([]int32, len(ctxs))
	entryCtxs := make([]string, 0, entries)
	for j, ctx := range ctxs {
		keys[j] = ctxKey(ctx)
	}
	for _, i := range byConcept {
		for j, e := range built[i] {
			if c := class[j]; c != j {
				rank[j] = rank[c]
			} else {
				rank[j] = d.appendRanking(e)
			}
			d.Concepts = append(d.Concepts, head[i])
			entryCtxs = append(entryCtxs, keys[j])
			d.Ranking = append(d.Ranking, rank[j])
		}
	}
	d.Ctxs = strtab.Pack(entryCtxs)
	m := newMaterialized(d, ing.maps.Flagged)
	m.rankings = rankings
	m.scored = int(scored.Load())
	return m
}

// materializedContexts are the contexts a store holds entries for, in the
// (concept, context key) order entries are stored in; one listed twice is
// materialized once. The context-free query has the empty key and sorts first.
func materializedContexts(opts MaterializeOptions) []*ontology.Context {
	ctxs := make([]*ontology.Context, 0, len(opts.Contexts)+1)
	ctxs = append(ctxs, nil)
	for i := range opts.Contexts {
		ctxs = append(ctxs, &opts.Contexts[i])
	}
	slices.SortFunc(ctxs, func(a, b *ontology.Context) int { return cmp.Compare(ctxKey(a), ctxKey(b)) })
	return slices.CompactFunc(ctxs, func(a, b *ontology.Context) bool { return ctxKey(a) == ctxKey(b) })
}

// evidenceClasses resolves each context to its evidence class, named by the
// first of ctxs in it: contexts whose IC under sim reads the same frequency
// labels (contextIC.evidence, of the contextIC scoring binds) give every
// concept the same IC, bit for bit. Under any other IC source each context is
// a class of its own.
func evidenceClasses(sim *Similarity, ctxs []*ontology.Context) []int {
	class := make([]int, len(ctxs))
	first := make(map[string]int, len(ctxs))
	for j, ctx := range ctxs {
		class[j] = j
		ic := sim.icUnder(ctx)
		labels, ok := ic.evidence()
		if !ok {
			continue
		}
		key := fmt.Sprint(labels)
		if c, seen := first[key]; seen {
			class[j] = c
		} else {
			first[key] = j
		}
	}
	return class
}

// appendRanking adds one ranking row to the columns and returns its index;
// callers append rankings in the order entries first name them.
func (d *FlatMaterializedData) appendRanking(e matEntry) int32 {
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
	return int32(len(d.Complete) - 1)
}

// materializeConcept builds one head concept's entries for every context:
// the full candidate set at the maximum radius, per-radius instance counts,
// and the per-context scored rankings, and reports the hits it scored. The
// candidates, counts and meets are the live kernel's geometry of q, walked to
// the maximum radius and kept out of the memo; the kernel's scorer runs over it
// once per evidence class, and a context whose class (class[j], the first
// context in it) is already ranked shares that entry.
func materializeConcept(r *Relaxer, q eks.ConceptID, ctxs []*ontology.Context, class []int, opts MaterializeOptions, sc *relaxScratch) ([]matEntry, int) {
	// Background never cancels, so the error paths are unreachable here.
	bg := context.Background()
	g, _ := r.geometry(bg, q, math.MaxInt, sc)
	out := make([]matEntry, len(ctxs))
	hits := 0
	for j, ctx := range ctxs {
		if c := class[j]; c != j {
			out[j] = out[c]
			continue
		}
		scored, _ := r.scoreGeometry(bg, q, ctx, g, len(g.levelEnd)-1, sc)
		hits += len(scored)
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
		out[j] = e
	}
	return out, hits
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
		return d.Ctxs.At(i) >= ctx
	})
	if i >= len(d.Concepts) || d.Concepts[i] != concept || d.Ctxs.At(i) != ctx {
		return matEntry{}, false
	}
	return m.entry(i), true
}

// entry is the view of entry i: the ranking it names.
func (m *Materialized) entry(i int) matEntry { return m.d.ranking(m.d.Ranking[i]) }

func (d *FlatMaterializedData) ranking(r int32) matEntry {
	return matEntry{
		complete: d.Complete[r] != 0,
		counts:   d.Counts[d.CountOff[r]:d.CountOff[r+1]],
		scores:   d.CandScores[d.CandOff[r]:d.CandOff[r+1]],
		cands:    d.CandSlots[d.CandOff[r]:d.CandOff[r+1]],
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
// on: normalized options, strictly ascending (concept, context) entries, each
// naming a ranking in range, in the canonical layout (rankings in first-use
// order, none shared by two concepts or used by none), and for each ranking,
// once, the radius-count span, in-range hop distances and slots, and final
// ranking order.
func OpenFlatMaterialized(d FlatMaterializedData, flagged []eks.ConceptID) (*Materialized, error) {
	opts := d.Relax.withDefaults()
	if d.Relax != opts {
		return nil, fmt.Errorf("core: materialized store has non-normalized relax options %+v", d.Relax)
	}
	if opts.MaxRadius > matMaxHops || len(flagged) > matMaxSlots {
		return nil, fmt.Errorf("core: materialized store: max radius %d or %d flagged concepts does not fit a stored candidate", opts.MaxRadius, len(flagged))
	}
	n, rankings := len(d.Concepts), len(d.Complete)
	if d.Ctxs.Len() != n || len(d.Ranking) != n {
		return nil, fmt.Errorf("core: materialized store: %d concepts, %d contexts, %d ranking indexes", n, d.Ctxs.Len(), len(d.Ranking))
	}
	if err := checkCSR32("materialized counts", rankings, d.CountOff, len(d.Counts)); err != nil {
		return nil, err
	}
	if err := checkCSR32("materialized candidates", rankings, d.CandOff, len(d.CandSlots)); err != nil {
		return nil, err
	}
	if len(d.CandScores) != len(d.CandSlots) {
		return nil, fmt.Errorf("core: materialized store: %d candidate scores, %d slots", len(d.CandScores), len(d.CandSlots))
	}
	// next is the number of rankings entries have named so far, and first the
	// first of them the current concept named: a ranking is checked at the
	// entry that names it first.
	var next, first int32
	for i := 0; i < n; i++ {
		if i > 0 {
			if d.Concepts[i] < d.Concepts[i-1] ||
				(d.Concepts[i] == d.Concepts[i-1] && d.Ctxs.At(i) <= d.Ctxs.At(i-1)) {
				return nil, fmt.Errorf("core: materialized entries not strictly ascending at %d", i)
			}
			if d.Concepts[i] != d.Concepts[i-1] {
				first = next
			}
		}
		switch r := d.Ranking[i]; {
		case r < 0 || int(r) >= rankings:
			return nil, fmt.Errorf("core: materialized entry (%d, %q) names ranking %d, past the %d rankings", d.Concepts[i], d.Ctxs.At(i), r, rankings)
		case r > next:
			return nil, fmt.Errorf("core: materialized entry (%d, %q) names ranking %d before ranking %d: rankings not in first-use order", d.Concepts[i], d.Ctxs.At(i), r, next)
		case r < first:
			return nil, fmt.Errorf("core: materialized entry (%d, %q) names ranking %d of an earlier concept", d.Concepts[i], d.Ctxs.At(i), r)
		case r == next:
			if err := checkMatRanking(d.ranking(r), opts, flagged, d.Concepts[i], d.Ctxs.At(i)); err != nil {
				return nil, err
			}
			next++
		}
	}
	if int(next) != rankings {
		return nil, fmt.Errorf("core: materialized store: %d of %d rankings named by no entry", rankings-int(next), rankings)
	}
	return newMaterialized(d, flagged), nil
}

// checkMatRanking checks one ranking, named in errors by the entry that names
// it first: its radius-count span, and its candidates' slots, hop distances
// and final ranking order.
func checkMatRanking(e matEntry, opts RelaxOptions, flagged []eks.ConceptID, concept eks.ConceptID, ctx string) error {
	wantCounts := opts.MaxRadius - opts.Radius + 1
	if !opts.DynamicRadius {
		wantCounts = 1
	}
	if len(e.counts) != wantCounts {
		return fmt.Errorf("core: materialized entry (%d, %q) has %d radius counts, want %d", concept, ctx, len(e.counts), wantCounts)
	}
	// Slots order as their concepts do, so ranking order reads off the packed
	// words.
	maxHops, slots := uint32(opts.MaxRadius), uint32(len(flagged))
	for j, c := range e.cands {
		if c>>matHopBits >= slots {
			return fmt.Errorf("core: materialized candidate %d of (%d, %q) names flagged slot %d of %d",
				j, concept, ctx, c>>matHopBits, slots)
		}
		if c&matMaxHops > maxHops {
			return fmt.Errorf("core: materialized candidate %d (concept %d) of (%d, %q) at %d hops exceeds max radius %d",
				j, flagged[c>>matHopBits], concept, ctx, c&matMaxHops, opts.MaxRadius)
		}
		if j > 0 && (e.scores[j] > e.scores[j-1] || (e.scores[j] == e.scores[j-1] && c>>matHopBits <= e.cands[j-1]>>matHopBits)) {
			return fmt.Errorf("core: materialized entry (%d, %q) not in ranking order at %d", concept, ctx, j)
		}
	}
	return nil
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
