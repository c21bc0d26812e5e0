package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

// The exhaustive live kernel, kept as the oracle of the differential tests
// (the eks.LegacyOracle pattern). These are the bodies core/relax.go and
// core/similarity.go had before the flagged frontier and the Equation 5
// split, verbatim: every radius step gathers the whole neighbourhood from
// scratch through NeighborsWithinHops (itself pinned to eks.LegacyOracle in
// eks/dense_equiv_test.go), throws the unflagged part away, recounts the
// instances, and every candidate is scored by a full Sim — both subsumer
// vectors, the meet and IC(q) fetched per candidate. What they share with the
// kernel under test is the data — graph, tables, subsumer-vector cache — and
// canonicalPathWeight and takeForKInstances, which this PR did not touch.

// legacyRelaxConcept is relaxConceptPath with no accelerator attached.
func (r *Relaxer) legacyRelaxConcept(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, k int) ([]Result, error) {
	target := k
	if target <= 0 {
		target = defaultCandidateTarget
	}
	ranked, err := r.legacyRankedCandidatesTarget(ctx, q, qctx, target, &legacyScratch{})
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return ranked, nil
	}
	return takeForKInstances(ranked, k, &relaxScratch{}), nil
}

type legacyScratch struct {
	relaxScratch
	nbuf []eks.Neighbor
}

func (r *Relaxer) legacyRankedCandidatesTarget(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, target int, sc *legacyScratch) ([]Result, error) {
	radius := r.opts.Radius
	var cands []eks.Neighbor
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: relaxation aborted at radius %d: %w", radius, err)
		}
		cands = r.legacyFlaggedWithin(q, radius, sc)
		if !r.opts.DynamicRadius || radius >= r.opts.MaxRadius || r.legacyInstanceCount(cands, sc) >= target {
			break
		}
		radius++
	}
	out := make([]Result, 0, len(cands))
	for i, nb := range cands {
		if i%scoreCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: relaxation aborted scoring candidate %d/%d: %w", i, len(cands), err)
			}
		}
		out = append(out, Result{
			Concept:   nb.ID,
			Score:     r.sim.legacySim(q, nb.ID, qctx),
			Hops:      nb.Hops,
			Instances: r.ing.InstancesForConcept(nb.ID),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Concept < out[j].Concept
	})
	return out, nil
}

func (r *Relaxer) legacyInstanceCount(cands []eks.Neighbor, sc *legacyScratch) int {
	seen := sc.resetSeen()
	for _, nb := range cands {
		for _, id := range r.ing.InstancesForConcept(nb.ID) {
			seen[id] = true
		}
	}
	return len(seen)
}

func (r *Relaxer) legacyFlaggedWithin(q eks.ConceptID, radius int, sc *legacyScratch) []eks.Neighbor {
	nbs := r.ing.Graph.NeighborsWithinHops(q, radius)
	out := sc.nbuf[:0]
	if r.opts.IncludeSelf && r.ing.IsFlagged(q) {
		out = append(out, eks.Neighbor{ID: q, Hops: 0})
	}
	for _, nb := range nbs {
		if r.ing.IsFlagged(nb.ID) {
			out = append(out, nb)
		}
	}
	sc.nbuf = out
	return out
}

func (s *Similarity) legacySim(a, b eks.ConceptID, ctx *ontology.Context) float64 {
	if a == b {
		return 1
	}
	lcs, gen, spec, ok := s.legacyCanonicalMeet(a, b)
	if !ok {
		return 0
	}
	ic := s.legacySimICFromLCS(a, b, lcs, ctx)
	if !s.UsePathWeight {
		return ic
	}
	return canonicalPathWeight(s.Weights, gen, spec) * ic
}

func (s *Similarity) legacyCanonicalMeet(a, b eks.ConceptID) (lcs []eks.ConceptID, gen, spec int, ok bool) {
	va, oka := s.subsumerVec(a)
	vb, okb := s.subsumerVec(b)
	if !oka || !okb {
		return nil, 0, 0, false
	}
	best := -1
	var ids []eks.ConceptID
	var rep eks.ConceptID
	repGen, repSpec := 0, 0
	eks.CommonSubsumers(va, vb, func(c eks.ConceptID, da, db int) {
		sum := da + db
		switch {
		case best == -1 || sum < best:
			best = sum
			ids = ids[:0]
			ids = append(ids, c)
			rep, repGen, repSpec = c, da, db
		case sum == best:
			ids = append(ids, c)
			if da < repGen || (da == repGen && c < rep) {
				rep, repGen, repSpec = c, da, db
			}
		}
	})
	if best == -1 {
		return nil, 0, 0, false
	}
	return ids, repGen, repSpec, true
}

func (s *Similarity) legacySimICFromLCS(a, b eks.ConceptID, lcs []eks.ConceptID, ctx *ontology.Context) float64 {
	lcsIC := 0.0
	for _, id := range lcs {
		lcsIC += s.IC.IC(id, ctx, s.Ontology)
	}
	lcsIC /= float64(len(lcs))
	denom := s.IC.IC(a, ctx, s.Ontology) + s.IC.IC(b, ctx, s.Ontology)
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

// legacyMaterializeConcept is materializeConcept before contexts shared their
// evidence class, verbatim: every context scored and ranked on its own.
// Materialization's oracle for one release.
func legacyMaterializeConcept(r *Relaxer, q eks.ConceptID, ctxs []*ontology.Context, opts MaterializeOptions, sc *relaxScratch) []matEntry {
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

// legacyMaterialize is MaterializeTopK's columns built serially through
// legacyMaterializeConcept, in the per-entry layout stores had before a
// ranking was stored once per evidence class: every entry its own ranking
// (Ranking[i] == i), so CountOff, CandOff and Complete are indexed by entry.
func legacyMaterialize(ing *Ingestion, sim *Similarity, opts MaterializeOptions) FlatMaterializedData {
	opts = opts.withDefaults()
	head := slices.Clone(headConcepts(ing, opts))
	slices.Sort(head)
	ctxs := materializedContexts(opts)
	r := NewRelaxer(ing, sim, nil, opts.Relax)
	d := FlatMaterializedData{Relax: opts.Relax, CountOff: []int32{0}, CandOff: []int32{0}}
	sc := &relaxScratch{}
	for _, q := range head {
		for j, e := range legacyMaterializeConcept(r, q, ctxs, opts, sc) {
			d.Concepts = append(d.Concepts, q)
			d.Ctxs = append(d.Ctxs, ctxKey(ctxs[j]))
			d.Ranking = append(d.Ranking, d.appendRanking(e))
		}
	}
	return d
}

// setGeometryBudget replaces the relaxer's geometry memo with an empty one of
// the given budget, so a test can make every query evict.
func (r *Relaxer) setGeometryBudget(bytes int64) {
	r.geo = newWeightedLRU[*geometry](bytes)
}

// audit walks every shard and returns the weight the cache accounts for, the
// weight of the entries it actually holds, and how many those are; ok is
// false when a shard's map and recency list disagree or a shard is over
// budget.
func (c *weightedLRU[V]) audit() (accounted, held int64, entries int, ok bool) {
	ok = true
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		listed, sum := 0, int64(0)
		for e := s.head; e != nil; e = e.next {
			listed++
			sum += e.weight
			if s.m[e.key] != e {
				ok = false
			}
		}
		if listed != len(s.m) || s.weight > c.shardBudget {
			ok = false
		}
		accounted, held, entries = accounted+s.weight, held+sum, entries+listed
		s.mu.Unlock()
	}
	return accounted, held, entries, ok
}

// denseFrequencyTable is BuildFrequencyTable before a label's span kept only
// its nonzero concepts: denseBuildFromDirect and aggregateLabels are the
// bodies the table's propagation had, verbatim — every label's span covers
// every concept of g, and the aggregate every concept. The sparse table's
// oracle for one release.
func denseFrequencyTable(g *eks.Graph, c *corpus.Corpus, opts FrequencyOptions) (*FrequencyTable, error) {
	opts = opts.withDefaults()
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	root, ok := g.Root()
	if !ok {
		return nil, errNoRoot
	}
	return denseBuildFromDirect(g, order, root, directCounts(g, c, opts), opts), nil
}

func denseBuildFromDirect(g *eks.Graph, order []eks.ConceptID, root eks.ConceptID, direct map[string]map[eks.ConceptID]float64, opts FrequencyOptions) *FrequencyTable {
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
