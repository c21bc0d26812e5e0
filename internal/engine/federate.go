// Federated multi-source relaxation: a Snapshot with secondary external
// knowledge sources mounted answers every request by fusing per-source ranked
// lists under a deterministic rule, and attaches per-source attribution (and,
// for a request that asks for Explain, the relaxation path) to every result.
// Single-source snapshots never enter this file's fused path — their output
// stays byte-identical to earlier versions.
package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
)

// sourceArm is one mounted source ready to answer queries: its ingestion
// plus the per-source mapper, similarity evaluator and relaxer built over
// its graph. arms[0] of a Snapshot is always the primary.
type sourceArm struct {
	name    string
	ing     *core.Ingestion
	sim     *core.Similarity
	relaxer *core.Relaxer
	mapper  match.Mapper
}

// multiSource reports whether secondary sources are mounted.
func (s *Snapshot) multiSource() bool { return len(s.arms) > 1 }

// fusedEntry accumulates one concept name's evidence across sources while
// fusing. The winner fields record the source whose score the entry keeps —
// the arm the explanation path runs in.
type fusedEntry struct {
	name          string
	score         float64
	hops          int
	instSet       map[kb.InstanceID]bool
	sources       []string
	winnerArm     int
	winnerQuery   eks.ConceptID
	winnerConcept eks.ConceptID
}

// relaxFused answers one request by relaxing in every mounted source that can
// map the term and fusing the per-source ranked lists.
//
// The fusion rule is deterministic: candidates join on concept NAME (the
// sources are distinct vocabularies over the same KB, so names are the only
// shared key); a joined candidate keeps the maximum per-source score, ties
// broken toward the earlier mount position; its instance set is the union
// across sources and its attribution lists every contributing source in
// mount order. The fused list ranks by score descending, then name
// ascending, and k truncates by distinct KB instances exactly as the
// single-source path does (a result whose instances were all already
// produced still rides along; truncation fires when k is reached BEFORE a
// result that would add new instances).
//
// The reported serve path is core.PathLive: fusion always re-ranks the full
// per-source candidate lists, so per-arm acceleration hits are not
// meaningful as a whole-answer label.
func (s *Snapshot) relaxFused(ctx context.Context, req core.Request, explain bool) Response {
	if req.Err != nil {
		return Response{Err: req.Err}
	}
	term, k := req.Term, req.K
	entries := make(map[string]*fusedEntry)
	var order []string // first-seen order, only for map iteration stability before sorting
	mappedAny := false
	for ai := range s.arms {
		arm := &s.arms[ai]
		q, ok := arm.mapper.Map(term)
		if !ok {
			continue
		}
		mappedAny = true
		// Full ranked list (k<=0): truncation must happen once, globally,
		// after fusion — a per-source cut could starve a concept that only
		// wins after its scores merge.
		resp := arm.relaxer.Relax(ctx, core.Request{Term: term, Concept: q, UseConcept: true, Ctx: req.Ctx})
		if resp.Err != nil {
			return Response{Err: resp.Err}
		}
		for _, r := range resp.Results {
			c, ok := arm.ing.Graph.Concept(r.Concept)
			if !ok {
				continue
			}
			e := entries[c.Name]
			if e == nil {
				e = &fusedEntry{
					name:          c.Name,
					score:         r.Score,
					hops:          r.Hops,
					instSet:       make(map[kb.InstanceID]bool),
					winnerArm:     ai,
					winnerQuery:   q,
					winnerConcept: r.Concept,
				}
				entries[c.Name] = e
				order = append(order, c.Name)
			} else if r.Score > e.score {
				// Strictly greater only: score ties keep the earlier mount.
				e.score, e.hops = r.Score, r.Hops
				e.winnerArm, e.winnerQuery, e.winnerConcept = ai, q, r.Concept
			}
			// A source contributes at most one entry per concept name (its
			// ranked list is concept-unique), so appending here cannot
			// duplicate an attribution.
			e.sources = append(e.sources, arm.name)
			for _, iid := range r.Instances {
				e.instSet[iid] = true
			}
		}
	}
	if !mappedAny {
		return Response{Err: fmt.Errorf("engine: query term %q: %w", term, core.ErrUnknownTerm)}
	}
	fused := make([]*fusedEntry, 0, len(entries))
	for _, name := range order {
		fused = append(fused, entries[name])
	}
	sort.Slice(fused, func(i, j int) bool {
		if fused[i].score != fused[j].score {
			return fused[i].score > fused[j].score
		}
		return fused[i].name < fused[j].name
	})
	out := make([]RelaxResult, 0, len(fused))
	seen := make(map[kb.InstanceID]bool)
	for _, e := range fused {
		// Distinct-instance truncation, matching core's takeForKInstances:
		// stop once k distinct instances exist before this entry.
		if k > 0 && len(seen) >= k {
			break
		}
		ids := make([]kb.InstanceID, 0, len(e.instSet))
		for iid := range e.instSet {
			ids = append(ids, iid)
		}
		slices.Sort(ids)
		rr := RelaxResult{Concept: e.name, Score: e.score, Hops: e.hops, Sources: e.sources}
		for _, iid := range ids {
			seen[iid] = true
			if inst, ok := s.ing.Store.Instance(iid); ok {
				rr.Instances = append(rr.Instances, inst.Name)
			}
		}
		if explain {
			rr.Explain = s.explainFor(&s.arms[e.winnerArm], e.winnerQuery, e.winnerConcept)
		}
		out = append(out, rr)
	}
	return Response{Results: out, Path: core.PathLive}
}

// attachExplain decorates an already-resolved single-source answer with
// source attribution and relaxation paths, for a request that asked for
// Explain. ids and out are positionally aligned (out = resolve(ids)).
func (s *Snapshot) attachExplain(term string, ids []core.Result, out []RelaxResult) {
	arm := &s.arms[0]
	// Re-map the term through the arm's mapper; Map is deterministic, so
	// this resolves to the same query concept the relaxer used.
	q, ok := arm.mapper.Map(term)
	if !ok {
		return
	}
	for i := range out {
		if i >= len(ids) {
			break
		}
		out[i].Sources = []string{arm.name}
		out[i].Explain = s.explainFor(arm, q, ids[i].Concept)
	}
}

// explainFor reconstructs the canonical relaxation path from query concept
// q to candidate c inside one source: up from q to the deterministic LCS
// representative (minimal up-hops, then minimal ID — exactly the subsumer
// the scored path weight ran through), then down to c. Edge distances are
// the original semantic distances (1 for native subsumptions, the attached
// distance for shortcut edges). Returns nil when the pair shares no
// subsumer or a path leg cannot be reconstructed — the result then carries
// attribution but no path, rather than a fabricated one.
func (s *Snapshot) explainFor(arm *sourceArm, q, c eks.ConceptID) *Explain {
	name := func(id eks.ConceptID) string {
		cc, _ := arm.ing.Graph.Concept(id)
		return cc.Name
	}
	if q == c {
		// IncludeSelf answers: the query concept itself, an empty path.
		return &Explain{
			Source:     arm.name,
			Query:      name(q),
			Subsumer:   name(q),
			PathWeight: 1,
			Edges:      []ExplainEdge{},
		}
	}
	rep, lcs, gen, spec, ok := arm.sim.CanonicalMeet(q, c)
	if !ok {
		return nil
	}
	upQ, ok1 := arm.ing.Graph.UpPathTo(q, rep)
	upC, ok2 := arm.ing.Graph.UpPathTo(c, rep)
	if !ok1 || !ok2 {
		return nil
	}
	edges := make([]ExplainEdge, 0, len(upQ)+len(upC))
	for _, e := range upQ {
		edges = append(edges, ExplainEdge{
			From: name(e.From), To: name(e.To), Direction: "generalization", Dist: e.Dist,
		})
	}
	// The candidate leg runs down from the subsumer, so its upward edges
	// reverse into specializations.
	for i := len(upC) - 1; i >= 0; i-- {
		e := upC[i]
		edges = append(edges, ExplainEdge{
			From: name(e.To), To: name(e.From), Direction: "specialization", Dist: e.Dist,
		})
	}
	ex := &Explain{
		Source:          arm.name,
		Query:           name(q),
		Subsumer:        name(rep),
		Generalizations: gen,
		Specializations: spec,
		PathWeight:      arm.sim.CanonicalPathWeight(gen, spec),
		Edges:           edges,
	}
	for _, id := range lcs {
		ex.Subsumers = append(ex.Subsumers, name(id))
	}
	return ex
}
