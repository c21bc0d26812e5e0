package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

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

// The posting-built candidate index, kept for one PR as the oracle of the
// stored geometry (TestIndexBornGeometryMatchesWalk): the bodies
// core/postings.go and geometryBuilder.addMeet had before the index stored
// what the kernel scores, verbatim — a concept's walk re-encoded as 32-byte
// postings over an LCS id pool, ordered by (hops, build-time partial
// similarity, id), and converted back into a geometry per relaxer.

// Posting is one candidate in the retired 32-byte layout.
type Posting struct {
	Concept      eks.ConceptID
	Hops         int32
	Gen, Spec    int32
	LCSLo, LCSHi int32
	Rsv          int32
}

// builtList is one concept's posting list; its postings' LCS spans are
// relative to its own lcs.
type builtList struct {
	indexed bool
	posts   []Posting
	lcs     []eks.ConceptID
}

func buildPostings(ing *Ingestion, sim *Similarity, q eks.ConceptID, opts CandidateIndexOptions) builtList {
	f, ok := ing.flaggedFrontier(q)
	if !ok {
		return builtList{}
	}
	defer f.Close()
	b := newGeometryBuilder(ing, sim.meetsFrom(q), 0)
	b.endLevel() // hop 0: a posting list never holds the query concept itself
	for hops := 1; hops <= opts.Radius; hops++ {
		level := f.Advance()
		if opts.MaxPostings > 0 && len(b.g.hits)+len(level) > opts.MaxPostings {
			return builtList{}
		}
		for _, slot := range level {
			b.add(slot)
		}
		b.endLevel()
	}
	g := b.g
	out := builtList{indexed: true, posts: make([]Posting, 0, len(g.hits))}
	partials := make([]float64, 0, len(g.hits))
	var one [1]int32
	for hops := 1; hops <= opts.Radius; hops++ {
		for _, h := range g.hits[g.levelEnd[hops-1]:g.levelEnd[hops]] {
			p := Posting{Concept: ing.maps.Flagged[h.slot], Hops: int32(hops)}
			partial := 0.0
			if lcs := g.lcsOf(h, &one); len(lcs) > 0 {
				shape := g.shapes[h.shape]
				p.Gen, p.Spec = shape.gen, shape.spec
				p.LCSLo = int32(len(out.lcs))
				for _, node := range lcs {
					out.lcs = append(out.lcs, b.nodes[node])
				}
				p.LCSHi = int32(len(out.lcs))
				partial = sim.pathWeight(int(shape.gen), int(shape.spec))
			}
			out.posts = append(out.posts, p)
			partials = append(partials, partial)
		}
	}
	order := make([]int, len(out.posts))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := &out.posts[a], &out.posts[b]
		return cmp.Or(cmp.Compare(pa.Hops, pb.Hops), rankOrder(partials[a], partials[b], pa.Concept, pb.Concept))
	})
	sorted := make([]Posting, len(out.posts))
	lcs := make([]eks.ConceptID, 0, len(out.lcs))
	for i, j := range order {
		p := out.posts[j]
		set := out.lcs[p.LCSLo:p.LCSHi]
		p.LCSLo, p.LCSHi = 0, 0
		if len(set) > 0 {
			p.LCSLo = int32(len(lcs))
			lcs = append(lcs, set...)
			p.LCSHi = int32(len(lcs))
		}
		sorted[i] = p
	}
	out.posts, out.lcs = sorted, lcs
	return out
}

func hopCut(posts []Posting, radius int) int {
	return sort.Search(len(posts), func(i int) bool { return int(posts[i].Hops) > radius })
}

// postingGeometry is what indexedGeometry was: q's posting list, built to
// idxRadius, read into the geometry a walk to the horizon would derive, each
// level in posting order.
func (r *Relaxer) postingGeometry(list builtList, idxRadius int, q eks.ConceptID, target int) *geometry {
	if !list.indexed || idxRadius < r.opts.Radius {
		return nil
	}
	horizon := min(idxRadius, r.maxRadius())
	posts := list.posts[:hopCut(list.posts, horizon)]
	b := newGeometryBuilder(r.ing, queryMeets{}, len(posts)+1)
	b.g.final = horizon == r.maxRadius()
	instances := 0
	if slot, flagged := r.ing.flaggedSlot(q); flagged && r.opts.IncludeSelf {
		b.addSelf(slot)
		instances = r.ing.instanceCount(slot)
	}
	for hops := 0; hops <= horizon; hops++ {
		for ; len(posts) > 0 && int(posts[0].Hops) == hops; posts = posts[1:] {
			p := &posts[0]
			slot, flagged := r.ing.flaggedSlot(p.Concept)
			if !flagged || !b.addMeet(slot, list.lcs[p.LCSLo:p.LCSHi], p.Gen, p.Spec) {
				return nil
			}
			instances += r.ing.instanceCount(slot)
		}
		b.endLevel()
		if hops >= r.opts.Radius {
			b.g.counts = append(b.g.counts, int32(instances))
		}
	}
	if !b.g.answers(target) {
		return nil
	}
	return b.g
}

func (b *geometryBuilder) addMeet(slot int32, lcs []eks.ConceptID, gen, spec int32) bool {
	g := b.g
	b.lcs = b.lcs[:0]
	for _, id := range lcs {
		node, ok := slices.BinarySearch(b.nodes, id)
		if !ok {
			return false
		}
		b.lcs = append(b.lcs, int32(node))
	}
	h := geoHit{slot: slot, lcs: geoNoMeet}
	switch {
	case len(lcs) == 0:
		g.hits = append(g.hits, h)
		return true
	case len(lcs) == 1:
		h.lcs = b.lcs[0]
	default:
		last := len(g.tiedOff) - 2
		if last < 0 || !slices.Equal(g.tied[g.tiedOff[last]:], b.lcs) {
			g.tied = append(g.tied, b.lcs...)
			g.tiedOff = append(g.tiedOff, int32(len(g.tied)))
			last++
		}
		h.lcs = ^int32(last)
	}
	shape := pathShape{gen, spec}
	i := len(g.shapes) - 1
	for i >= 0 && g.shapes[i] != shape {
		i--
	}
	if i < 0 {
		i = len(g.shapes)
		g.shapes = append(g.shapes, shape)
	}
	h.shape = uint32(i)
	g.hits = append(g.hits, h)
	return true
}
