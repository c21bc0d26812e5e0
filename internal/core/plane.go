package core

import (
	"maps"
	"slices"

	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

// An IC plane is Equation 1 under one query context for every node of the
// ingestion's IC domain, by rank: the IC of a node depends on neither the
// query concept nor k, so a relaxer computes it once per context — through
// contextIC.of, so the values are its bits — and a request loads it. Planes
// are built on a context's first query and published copy-on-write, as
// FrequencyTable publishes resolved contexts: two first queries at once both
// build, and past maxResolvedContexts a new context gets no plane.

// planeKey names a query context; none is the context-free query.
type planeKey struct {
	ctx  ontology.Context
	none bool
}

// planeIC is the relaxer's IC source under one query context: the context's
// plane where there is one and the node is ranked, contextIC.of anywhere else,
// so every ICSource scores as it would without planes.
type planeIC struct {
	contextIC
	plane   []float64
	rank    []int32         // the ingestion's icRank
	nodes   []eks.ConceptID // the graph's ascending ids; a position is a node
	flagged []eks.ConceptID
}

// icUnder binds the IC source for one query, building qctx's plane if this is
// its first.
func (r *Relaxer) icUnder(qctx *ontology.Context) planeIC {
	ic := planeIC{
		contextIC: r.sim.icUnder(qctx),
		rank:      r.ing.icRank,
		nodes:     r.ing.Graph.FlatData().IDs,
		flagged:   r.ing.maps.Flagged,
	}
	key := planeKey{none: qctx == nil}
	if qctx != nil {
		key.ctx = *qctx
	}
	if m := r.planes.Load(); m != nil {
		if ic.plane = (*m)[key]; ic.plane != nil || len(*m) >= maxResolvedContexts {
			return ic
		}
	}
	ic.plane = make([]float64, len(r.ing.icDomain))
	for rk, id := range r.ing.icDomain {
		ic.plane[rk] = ic.of(id)
	}
	r.planeMu.Lock()
	defer r.planeMu.Unlock()
	m := map[planeKey][]float64{}
	if old := r.planes.Load(); old != nil {
		if len(*old) >= maxResolvedContexts {
			return ic
		}
		m = maps.Clone(*old)
	}
	m[key] = ic.plane
	r.planes.Store(&m)
	return ic
}

// at is the IC of a graph node.
func (p *planeIC) at(node int32) float64 {
	if rk := p.rank[node]; rk >= 0 && p.plane != nil {
		return p.plane[rk]
	}
	return p.of(p.nodes[node])
}

// atSlot is the IC of the flagged concept in a slot, which is its rank.
func (p *planeIC) atSlot(slot int32) float64 {
	if p.plane != nil {
		return p.plane[slot]
	}
	return p.of(p.flagged[slot])
}

// ofConcept is the IC of any concept, the graph's or not.
func (p *planeIC) ofConcept(id eks.ConceptID) float64 {
	if node, ok := slices.BinarySearch(p.nodes, id); ok {
		return p.at(int32(node))
	}
	return p.of(id)
}
