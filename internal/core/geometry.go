package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

// geometry is the context-free half of one query concept's relaxation:
// Algorithm 2's candidate set — the flagged hits of the walk, hop-ascending —
// each with its canonical meet with the query (tied LCS set and the hop shape
// of Equation 4's path), plus the per-radius distinct-instance counts the
// dynamic radius is decided on. Nothing in it depends on the query context or
// on k beyond how far the walk had to go, so one geometry serves every
// (context, k) a concept is asked under; per request Equations 1–3 are loads
// from the context's IC plane and a few operations a hit (scoreGeometry). A
// walk supplies it, or the candidate index, which stores the geometries of a
// walk to its radius in this form (indexedGeometry). It is immutable once
// built.
type geometry struct {
	hits []geoHit
	// levelEnd[h] is the number of hits within h hops, one entry per hop from
	// 0 (the query concept itself, under IncludeSelf) to the radius walked.
	levelEnd []int32
	// counts[i] is the number of distinct instances within opts.Radius+i
	// hops.
	counts []int32
	// shapes are the distinct (gen, spec) hop counts of the hits' canonical
	// paths; a request turns them into Equation 4 weights once.
	shapes []pathShape
	// tied pools the LCS sets of two or more members as graph nodes, set i
	// being tied[tiedOff[i]:tiedOff[i+1]]; a hit whose set equals its
	// predecessor's shares it.
	tiedOff []int32
	tied    []int32

	// final is whether the walk went all the way to the maximum radius: a
	// final geometry answers every target, any other only those its last
	// count meets — the walk for them would have stopped no later.
	final bool
	// indexed marks a view of the candidate index: hits, shapes and tied sets
	// alias its columns, the rest the scratch of the request it serves, which
	// reports PathIndexed.
	indexed bool
	// reached is the number of graph nodes the walk entered, none for a view.
	reached int
}

// answers reports whether the geometry holds every candidate a walk for
// target would gather.
func (g *geometry) answers(target int) bool {
	return g.final || int(g.counts[len(g.counts)-1]) >= target
}

// geoHit is one candidate in 12 bytes: its slot in the flagged set, its LCS
// with the query — the graph node of a sole LCS, or ^i for tied set i, or
// geoNoMeet — and the index of its path shape.
type geoHit struct {
	slot  int32
	lcs   int32
	shape uint32
}

const geoNoMeet = math.MinInt32

type pathShape struct{ gen, spec int32 }

// bytes is what the geometry holds on the heap, the weight the memo budgets:
// nothing for a view, whose slices are the candidate index's and its
// request's.
func (g *geometry) bytes() int64 {
	if g.indexed {
		return 0
	}
	return int64(unsafe.Sizeof(*g)) +
		int64(cap(g.hits))*int64(unsafe.Sizeof(geoHit{})) +
		int64(cap(g.levelEnd)+cap(g.counts)+cap(g.tiedOff)+cap(g.tied))*4 +
		int64(cap(g.shapes))*int64(unsafe.Sizeof(pathShape{}))
}

// lcsOf returns a hit's LCS set as ascending graph nodes; one is the caller's
// buffer for a sole LCS.
func (g *geometry) lcsOf(h geoHit, one *[1]int32) []int32 {
	switch {
	case h.lcs == geoNoMeet:
		return nil
	case h.lcs >= 0:
		one[0] = h.lcs
		return one[:]
	default:
		return g.tied[g.tiedOff[^h.lcs]:g.tiedOff[^h.lcs+1]]
	}
}

// geometryBuilder assembles hits level by level: the one place a flagged
// concept reached by a walk gets its canonical meet with the query concept.
type geometryBuilder struct {
	ing   *Ingestion
	nodes []eks.ConceptID // the graph's ascending ids; a position is a node
	meets queryMeets
	lcs   []int32 // the LCS set being added, as nodes
	g     *geometry
}

// newGeometryBuilder starts a geometry of capacity hits for the query concept
// meets was taken from.
func newGeometryBuilder(ing *Ingestion, meets queryMeets, capacity int) geometryBuilder {
	return geometryBuilder{
		ing:   ing,
		nodes: ing.Graph.FlatData().IDs,
		meets: meets,
		g:     &geometry{hits: make([]geoHit, 0, capacity), tiedOff: []int32{0}},
	}
}

// addSelf appends the query concept itself, the hit at hop 0: it scores 1 by
// definition and carries no meet.
func (b *geometryBuilder) addSelf(slot int32) {
	b.g.hits = append(b.g.hits, geoHit{slot: slot, lcs: geoNoMeet})
}

// add appends the flagged concept in slot to the level being built with its
// meet with the query concept: the tied LCS set, ascending, as graph nodes,
// and the hop counts of the canonical path.
func (b *geometryBuilder) add(slot int32) {
	g := b.g
	lcs, gen, spec := b.meets.to(b.ing.maps.Flagged[slot])
	b.lcs = b.lcs[:0]
	for _, id := range lcs {
		node, _ := slices.BinarySearch(b.nodes, id)
		b.lcs = append(b.lcs, int32(node))
	}
	h := geoHit{slot: slot, lcs: geoNoMeet}
	switch {
	case len(lcs) == 0:
		g.hits = append(g.hits, h)
		return
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
	// A walk meets a handful of shapes, and neighbours mostly share one.
	shape := pathShape{int32(gen), int32(spec)}
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
}

// endLevel closes the hop level the hits since the last call belong to.
func (b *geometryBuilder) endLevel() {
	b.g.levelEnd = append(b.g.levelEnd, int32(len(b.g.hits)))
}

// geometry runs Algorithm 2's walk from q for target distinct instances and
// derives every hit's meet: the context-free work of a relaxation, all of it.
func (r *Relaxer) geometry(ctx context.Context, q eks.ConceptID, target int, sc *relaxScratch) (*geometry, error) {
	hits, counts, reached, err := r.gatherFlagged(ctx, q, target, sc)
	if err != nil {
		return nil, err
	}
	b := newGeometryBuilder(r.ing, r.sim.meetsFrom(q), len(hits))
	walked := r.opts.Radius + len(counts) - 1
	next := 0
	for hops := 0; hops <= walked; hops++ {
		for ; next < len(hits) && int(hits[next].hops) == hops; next++ {
			if next%scoreCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("core: relaxation aborted deriving candidate %d/%d: %w", next, len(hits), err)
				}
			}
			if hops == 0 {
				b.addSelf(hits[next].slot)
			} else {
				b.add(hits[next].slot)
			}
		}
		b.endLevel()
	}
	g := b.g
	g.counts = slices.Clone(counts)
	g.final, g.reached = walked == r.maxRadius(), reached
	return g, nil
}

// geometryBudget bounds a relaxer's geometry memo. At 12 bytes a hit, every
// flagged concept of a paper-order world with a thousand of them reaching
// each other costs about 11 MB.
const geometryBudget = 16 << 20

// memoGeometry returns q's geometry for target: from the memo when it holds
// one that covers it; else as a view of the candidate index when that holds q
// out to a horizon that answers target, which costs a memo hit's work and
// enters no memo; else walked, derived and published. Entries are never
// modified: a request that needs a wider geometry than the stored one — the
// memo's or the index's — replaces it by a walk, and two requests filling the
// same concept at once both do the work and publish equal entries.
func (r *Relaxer) memoGeometry(ctx context.Context, q eks.ConceptID, target int, sc *relaxScratch) (*geometry, error) {
	outcome, counter := "fill", &r.geoFills
	if stored, ok := r.geo.get(q); ok {
		if stored.answers(target) {
			sc.stats.geometry = "hit"
			r.geoHits.Add(1)
			return stored, nil
		}
		outcome, counter = "refill", &r.geoRefills
	} else if view, held := r.indexedGeometry(q, target, sc); view != nil {
		sc.stats.geometry = "mapped"
		r.geoMapped.Add(1)
		return view, nil
	} else if held {
		outcome, counter = "refill", &r.geoRefills
	}
	g, err := r.geometry(ctx, q, target, sc)
	if err != nil {
		return nil, err
	}
	r.geo.put(q, g, g.bytes())
	sc.stats.geometry, sc.stats.reached = outcome, g.reached
	counter.Add(1)
	r.geoEntered.Add(uint64(g.reached))
	return g, nil
}

// indexedGeometry returns q's stored geometry as this relaxer sees it: hits,
// shapes and tied sets alias the index, and so do level ends and counts, cut
// to the horizon the index and the maximum radius share — except for a flagged
// q without IncludeSelf, whose own hit and instances are left out and the two
// rewritten into the scratch. The view lives in the scratch until its next
// request. held is whether the index has q; the view is nil when it does not
// or its horizon does not answer target, and the caller walks.
func (r *Relaxer) indexedGeometry(q eks.ConceptID, target int, sc *relaxScratch) (view *geometry, held bool) {
	x := r.cidx
	if x == nil {
		return nil, false
	}
	i, held := slices.BinarySearch(x.d.Concepts, q)
	if !held {
		return nil, false
	}
	d, stride := &x.d, x.d.Radius+1
	horizon := min(d.Radius, r.maxRadius())
	levels, counts := d.Levels[i*stride:][:horizon+1], d.Counts[i*stride:][r.opts.Radius:horizon+1]
	own := int32(0)
	if !r.opts.IncludeSelf && levels[0] != 0 {
		own = levels[0]
		buf := slices.Grow(sc.levels[:0], len(levels)+len(counts))
		for _, end := range levels {
			buf = append(buf, end-own)
		}
		for _, n := range counts {
			buf = append(buf, n-d.Counts[i*stride])
		}
		sc.levels = buf
		levels, counts = buf[:len(levels)], buf[len(levels):]
	}
	sc.view = geometry{
		hits:     x.hits[d.Off[i]+own : d.Off[i]+own+levels[horizon]],
		levelEnd: levels,
		counts:   counts,
		shapes:   x.shapes[d.ShapeOff[i]:d.ShapeOff[i+1]],
		tiedOff:  d.TiedOff[d.SetOff[i] : d.SetOff[i+1]+1],
		tied:     d.Tied,
		final:    horizon == r.maxRadius(),
		indexed:  true,
	}
	if !sc.view.answers(target) {
		return nil, true
	}
	return &sc.view, true
}

// scoreGeometry is the context half of Equation 5 for every kernel — the live
// one over a walked geometry or a view of the candidate index, materialization
// over a full walk: the hits of g within radius hops, each
// scored under qctx from its meet. The context's IC plane is bound, the query
// concept's IC fetched and each path shape's Equation 4 weight looked up once;
// a hit then costs the loads of its candidate's and its LCS's IC and the
// arithmetic of simICFromLCS in its order. The scores alias the scratch.
func (r *Relaxer) scoreGeometry(ctx context.Context, q eks.ConceptID, qctx *ontology.Context, g *geometry, radius int, sc *relaxScratch) ([]scoredHit, error) {
	ic := r.icUnder(qctx)
	icQ := ic.ofConcept(q)
	weighted, weights := r.sim.UsePathWeight, sc.weights[:0]
	if weighted {
		for _, s := range g.shapes {
			weights = append(weights, r.sim.pathWeight(int(s.gen), int(s.spec)))
		}
	}
	sc.weights = weights
	n := int(g.levelEnd[radius])
	scored := slices.Grow(sc.scored[:0], n)
	var one [1]int32
	hops := int32(0)
	for i, h := range g.hits[:n] {
		if i%scoreCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: relaxation aborted scoring candidate %d/%d: %w", i, n, err)
			}
		}
		for i >= int(g.levelEnd[hops]) {
			hops++
		}
		score := 1.0 // the query concept itself, the only hit at hop 0
		if hops > 0 {
			score = 0
			if lcs := g.lcsOf(h, &one); len(lcs) > 0 {
				lcsIC := 0.0
				for _, node := range lcs {
					lcsIC += ic.at(node)
				}
				score = simICOf(lcsIC/float64(len(lcs)), icQ, ic.atSlot(h.slot))
				if weighted {
					score = weights[h.shape] * score
				}
			}
		}
		scored = append(scored, scoredHit{score: score, slot: h.slot, hops: hops})
	}
	sc.scored = scored
	sc.stats.scored = n
	return scored, nil
}
