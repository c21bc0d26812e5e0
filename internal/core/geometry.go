package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"medrelax/internal/eks"
)

// geometry is the context-free half of one query concept's relaxation:
// Algorithm 2's candidate set — the flagged hits of the walk, hop-ascending —
// each with its canonical meet with the query (tied LCS set and the hop shape
// of Equation 4's path), plus the per-radius distinct-instance counts the
// dynamic radius is decided on. Nothing in it depends on the query context or
// on k beyond how far the walk had to go, so one geometry serves every
// (context, k) a concept is asked under; only Equations 1–3 run per request.
// It is immutable once built.
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
	// tied pools the LCS sets of two or more members, set i being
	// tied[tiedOff[i]:tiedOff[i+1]]; a hit whose set equals its
	// predecessor's shares it.
	tiedOff []int32
	tied    []eks.ConceptID

	// final is whether the walk went all the way to the maximum radius: a
	// final geometry answers every target, any other only those its last
	// count meets — the walk for them would have stopped no later.
	final bool
	// reached is the number of graph nodes the walk touched.
	reached int
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

// bytes is what the geometry holds on the heap, the weight the memo budgets.
func (g *geometry) bytes() int64 {
	return int64(unsafe.Sizeof(*g)) +
		int64(cap(g.hits))*int64(unsafe.Sizeof(geoHit{})) +
		int64(cap(g.levelEnd)+cap(g.counts)+cap(g.tiedOff))*4 +
		int64(cap(g.shapes))*int64(unsafe.Sizeof(pathShape{})) +
		int64(cap(g.tied))*int64(unsafe.Sizeof(eks.ConceptID(0)))
}

// lcsOf returns a hit's LCS set, ascending; nodes is the graph's id column
// and one the caller's buffer for a sole LCS.
func (g *geometry) lcsOf(h geoHit, nodes []eks.ConceptID, one *[1]eks.ConceptID) []eks.ConceptID {
	switch {
	case h.lcs == geoNoMeet:
		return nil
	case h.lcs >= 0:
		one[0] = nodes[h.lcs]
		return one[:]
	default:
		return g.tied[g.tiedOff[^h.lcs]:g.tiedOff[^h.lcs+1]]
	}
}

// geometryBuilder derives hits level by level: the one place a flagged
// concept reached by a walk gets its canonical meet with the query concept.
type geometryBuilder struct {
	ing   *Ingestion
	nodes []eks.ConceptID // the graph's ascending ids; a position is a node
	meets queryMeets
	g     *geometry
}

func newGeometryBuilder(ing *Ingestion, sim *Similarity, q eks.ConceptID, capacity int) geometryBuilder {
	return geometryBuilder{
		ing:   ing,
		nodes: ing.Graph.FlatData().IDs,
		meets: sim.meetsFrom(q),
		g:     &geometry{hits: make([]geoHit, 0, capacity), tiedOff: []int32{0}},
	}
}

// addSelf appends the query concept itself, the hit at hop 0: it scores 1 by
// definition and carries no meet.
func (b *geometryBuilder) addSelf(slot int32) {
	b.g.hits = append(b.g.hits, geoHit{slot: slot, lcs: geoNoMeet})
}

// add appends the flagged concept in slot to the level being built.
func (b *geometryBuilder) add(slot int32) {
	g := b.g
	lcs, gen, spec := b.meets.to(b.ing.maps.Flagged[slot])
	h := geoHit{slot: slot, lcs: geoNoMeet}
	switch {
	case len(lcs) == 0:
		g.hits = append(g.hits, h)
		return
	case len(lcs) == 1:
		node, _ := slices.BinarySearch(b.nodes, lcs[0])
		h.lcs = int32(node)
	default:
		last := len(g.tiedOff) - 2
		if last < 0 || !slices.Equal(g.tied[g.tiedOff[last]:], lcs) {
			g.tied = append(g.tied, lcs...)
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
	b := newGeometryBuilder(r.ing, r.sim, q, len(hits))
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

// memoGeometry returns q's geometry for target, from the memo when it holds
// one that covers it, and otherwise walked, derived and published. Entries
// are never modified: a request that needs a wider walk than the stored one
// replaces it, and two requests filling the same concept at once both do the
// work and publish equal entries.
func (r *Relaxer) memoGeometry(ctx context.Context, q eks.ConceptID, target int, sc *relaxScratch) (*geometry, error) {
	outcome, counter := "fill", &r.geoFills
	if g, ok := r.geo.get(q); ok {
		if g.final || int(g.counts[len(g.counts)-1]) >= target {
			sc.stats.geometry = "hit"
			r.geoHits.Add(1)
			return g, nil
		}
		outcome, counter = "refill", &r.geoRefills
	}
	g, err := r.geometry(ctx, q, target, sc)
	if err != nil {
		return nil, err
	}
	r.geo.put(q, g, g.bytes())
	sc.stats.geometry, sc.stats.reached = outcome, g.reached
	counter.Add(1)
	return g, nil
}

// hitsWithin yields the hits of g within radius hops to the shared scorer, in
// stored order; the Equation 4 weight of each shape is looked up once.
func (r *Relaxer) hitsWithin(g *geometry, radius int, sc *relaxScratch) (int, hitSource) {
	weights := sc.weights[:0]
	if r.sim.UsePathWeight {
		for _, s := range g.shapes {
			weights = append(weights, r.sim.pathWeight(int(s.gen), int(s.spec)))
		}
	}
	sc.weights = weights
	nodes := r.ing.Graph.FlatData().IDs
	var one [1]eks.ConceptID
	hops := int32(0)
	return int(g.levelEnd[radius]), func(i int) (int32, int32, pairMeet) {
		for i >= int(g.levelEnd[hops]) {
			hops++
		}
		h := g.hits[i]
		meet := pairMeet{lcs: g.lcsOf(h, nodes, &one)}
		if len(meet.lcs) > 0 && len(weights) > 0 {
			meet.weight = weights[h.shape]
		}
		return h.slot, hops, meet
	}
}
