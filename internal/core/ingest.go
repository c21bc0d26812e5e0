package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
)

// IngestOptions tunes the offline phase.
type IngestOptions struct {
	// Frequency controls the corpus-derived frequency table.
	Frequency FrequencyOptions
	// ShortcutMaxDist caps the original distance of shortcut edges added
	// during customization; 0 means unlimited, exactly as in Algorithm 1.
	// Large graphs can set a cap to bound edge growth.
	ShortcutMaxDist int
	// DisableShortcuts skips the external-knowledge-source customization
	// entirely (ablation: BenchmarkAblationShortcutEdges).
	DisableShortcuts bool
	// Materialize optionally precomputes top-k relaxation answers for the
	// frequency head of the flagged concepts (see MaterializeTopK).
	Materialize MaterializeOptions
	// CandidateIndex optionally precomputes per-concept geometries for the
	// online phase (see BuildCandidateIndex).
	CandidateIndex CandidateIndexOptions
}

// Ingestion is the output of the offline phase (Algorithm 1): the set of
// possible contexts C, the per-context frequencies F, the instance-concept
// mappings M, and the flagged external concepts FEC. It also retains the
// handles needed by the online phase.
type Ingestion struct {
	// Contexts is the set of possible query contexts, derived from the
	// domain ontology's relationships.
	Contexts []ontology.Context
	// Frequencies is the per-context frequency table.
	Frequencies *FrequencyTable
	// Graph is the customized external knowledge source (shortcut edges
	// added in place).
	Graph *eks.Graph
	// Store and Ontology are the knowledge base this ingestion serves.
	Store    *kb.Store
	Ontology *ontology.Ontology
	// ShortcutsAdded counts the application-specific edges introduced.
	ShortcutsAdded int
	// Materialized is the optional offline top-k store (nil unless
	// IngestOptions.Materialize.Enabled or restored from a bundle).
	Materialized *Materialized
	// Candidates is the optional stored-geometry candidate index (nil unless
	// IngestOptions.CandidateIndex.Enabled or restored from a bundle).
	Candidates *CandidateIndex
	// Lookup is the graph's term resolver as adopted from the resolver
	// columns of a flat bundle; nil for an ingestion built in process or
	// loaded from a form that carries none, whose server builds its own
	// (match.NewLookupService).
	Lookup *match.LookupService
	// Backing describes (and pins through liveness) the memory a flat-mapped
	// ingestion reads from; nil for heap-backed ingestions.
	Backing SnapshotBacking
	// Sources are the optional secondary external knowledge sources mounted
	// next to this (primary) ingestion, in mount order. Empty for the
	// classic single-source deployment, whose behaviour is unchanged.
	Sources []NamedSource

	// maps holds the instance-concept mappings M and the flagged set FEC as
	// columns; read them through IsFlagged, FlaggedCount, FlaggedIDs,
	// InstancesForConcept, MappingCount and FlatMappings.
	maps FlatMappingsData
	// slots is derived from maps and the graph, never stored: for each graph
	// node, in ConceptIDs() order, its position in maps.Flagged or -1 — the
	// report column of the flagged walk.
	slots []int32
	// icRank and icDomain, derived with slots, are the IC domain (see
	// rankICDomain): each graph node's rank in it or -1, and the concept at
	// each rank. A Relaxer's per-context IC planes are columns over it.
	icRank   []int32
	icDomain []eks.ConceptID
	// walk is the skeleton the flagged walk runs on, derived from the graph
	// and slots by the first flagged walk (see flaggedFrontier) — after
	// customization, whose shortcut edges change neighbourhoods — and never
	// stored.
	walk *flaggedWalk
}

// flaggedWalk holds an ingestion's walk skeleton, derived once.
type flaggedWalk struct {
	once sync.Once
	skel *eks.Skeleton
}

// Close releases resources the ingestion's backing pins — for a
// memory-mapped flat bundle, the OS mapping, unmapped now instead of at GC
// time. Safe on heap-backed ingestions (no-op) and idempotent when the
// backing's Close is. The caller must have drained every reader first:
// accessors on a flat ingestion fault after Close.
func (ing *Ingestion) Close() error {
	if c, ok := ing.Backing.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Ingest runs the offline external knowledge source ingestion (Algorithm 1)
// over the domain ontology o, the instance store, the external knowledge
// source g (mutated in place by customization), the document corpus corp,
// and the chosen instance-to-concept mapper.
//
// The three dominant stages run on GOMAXPROCS workers: instance
// mapping fans out over the instances (the mapper must be safe for
// concurrent use — every match.Mapper is, see the Mapper contract),
// shortcut planning computes per-concept subsumer distances across workers
// on the read-only graph, and corpus counting shards the documents. Every
// merge is order-independent, so the result is byte-identical to the
// serial run (GOMAXPROCS 1).
func Ingest(o *ontology.Ontology, store *kb.Store, g *eks.Graph, corp *corpus.Corpus, mapper match.Mapper, opts IngestOptions) (*Ingestion, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid external knowledge source: %w", err)
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid domain ontology: %w", err)
	}
	workers := runtime.GOMAXPROCS(0)

	// Mappings (lines 5–11): map every instance, flag mapped concepts.
	// Each Map call is independent and O(vocab) for the approximate
	// matchers, so this is the dominant stage; workers fill a results slice
	// indexed by instance position, and the mapped pairs are collected in
	// instance order, which is ascending ID order (AllInstances sorts).
	instances := store.AllInstances()
	mapped := make([]eks.ConceptID, len(instances))
	ok := make([]bool, len(instances))
	parallelChunks(len(instances), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mapped[i], ok[i] = mapper.Map(instances[i].Name)
		}
	})
	var pairInst []kb.InstanceID
	var pairCon []eks.ConceptID
	for i, inst := range instances {
		if ok[i] {
			pairInst = append(pairInst, inst.ID)
			pairCon = append(pairCon, mapped[i])
		}
	}
	// Algorithm 1, lines 1–4: the contexts come from the ontology.
	ing, err := NewFlatIngestion(o.Contexts(), g, store, o, nil, 0, MappingsFromPairs(pairInst, pairCon))
	if err != nil {
		return nil, err
	}

	// Concept frequency (lines 12–18).
	ft, err := BuildFrequencyTable(g, corp, opts.Frequency)
	if err != nil {
		return nil, err
	}
	ing.Frequencies = ft

	// External knowledge source customization (lines 19–23): for each
	// concept A and each non-parent ancestor B, when A or B is flagged, add
	// an application-specific edge carrying the original distance. Planning
	// only reads the pre-customization graph and the flag set, so concepts
	// are planned across workers; the per-worker plans are concatenated and
	// sorted by (from, to) — a total order over the planned set — before
	// the serial insertion, making the edge list independent of scheduling.
	if !opts.DisableShortcuts {
		order, err := g.TopologicalOrder()
		if err != nil {
			return nil, err
		}
		planned := planShortcuts(g, order, ing.IsFlagged, opts.ShortcutMaxDist, workers)
		for _, e := range planned {
			if err := g.AddShortcutEdge(e.from, e.to, e.dist); err != nil {
				return nil, fmt.Errorf("core: customization: %w", err)
			}
			ing.ShortcutsAdded++
		}
	}
	// The graph's structure is final: freeze the dense traversal index now
	// so the first online query does not pay the build.
	g.Freeze()

	// Optional offline accelerations run against the frozen graph with the
	// same similarity construction the engine serves with (default weights,
	// path weight on, frequencies as the IC source), so stored scores are
	// bit-identical to the live traversal's.
	if opts.Materialize.Enabled || opts.CandidateIndex.Enabled {
		sim := NewSimilarity(g, ft, o)
		if opts.CandidateIndex.Enabled {
			ing.Candidates = BuildCandidateIndex(ing, sim, opts.CandidateIndex)
		}
		if opts.Materialize.Enabled {
			mopts := opts.Materialize
			if len(mopts.Contexts) == 0 {
				mopts.Contexts = ing.Contexts
			}
			ing.Materialized = MaterializeTopK(ing, sim, mopts)
		}
	}
	return ing, nil
}

// plannedEdge is one shortcut edge scheduled for insertion.
type plannedEdge struct {
	from, to eks.ConceptID
	dist     int
}

// planShortcuts computes the shortcut edges of Algorithm 1 lines 19–23
// without mutating the graph: per concept, every non-parent ancestor within
// the distance cap with a flagged endpoint and no existing edge. The
// per-concept computation (a semantic-metric Dijkstra on the dense index,
// read as the concept's subsumer vector) runs across workers; results merge
// into (from, to) order.
func planShortcuts(g *eks.Graph, order []eks.ConceptID, flagged func(eks.ConceptID) bool, maxDist, workers int) []plannedEdge {
	plans := make([][]plannedEdge, len(order))
	parallelChunks(len(order), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := order[i]
			aFlagged := flagged(a)
			var out []plannedEdge
			up, _ := g.SubsumerVec(a)
			for j := range up.Len() {
				b, dist := up.At(j)
				if dist < 2 {
					continue // a itself and its direct parents stay as they are
				}
				if maxDist > 0 && dist > maxDist {
					continue
				}
				if !aFlagged && !flagged(b) {
					continue
				}
				if g.HasEdge(a, b) {
					continue
				}
				out = append(out, plannedEdge{from: a, to: b, dist: dist})
			}
			plans[i] = out
		}
	})
	var planned []plannedEdge
	for _, p := range plans {
		planned = append(planned, p...)
	}
	// Deterministic insertion order.
	slices.SortFunc(planned, func(a, b plannedEdge) int {
		if a.from != b.from {
			return cmp.Compare(a.from, b.from)
		}
		return cmp.Compare(a.to, b.to)
	})
	return planned
}

// ConceptForTerm maps a query term to an external concept with the given
// mapper — the first step of the online phase (Algorithm 2, line 1).
func (ing *Ingestion) ConceptForTerm(term string, mapper match.Mapper) (eks.ConceptID, bool) {
	return mapper.Map(term)
}

// InstanceResults resolves a ranked list of external concepts into KB
// instances through the mappings (Algorithm 2, line 7).
func (ing *Ingestion) InstanceResults(conceptIDs []eks.ConceptID) []kb.InstanceID {
	var out []kb.InstanceID
	seen := map[kb.InstanceID]bool{}
	for _, cid := range conceptIDs {
		for _, iid := range ing.InstancesForConcept(cid) {
			if !seen[iid] {
				seen[iid] = true
				out = append(out, iid)
			}
		}
	}
	return out
}
