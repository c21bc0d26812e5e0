package core

import (
	"cmp"
	"fmt"
	"slices"

	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/ontology"
)

// This file holds what the offline-phase products share — each has one read
// representation whose columns are its exported Flat*Data struct, assembled
// by its build function or adopted from flat (v4) bundle sections after the
// same validator — and the instance-concept mappings of an Ingestion.

// SnapshotBacking describes (and, through liveness, pins) the memory a
// flat-mapped ingestion reads from. The persistence layer implements it for
// memory-mapped bundles; heap-backed ingestions leave it nil.
type SnapshotBacking interface {
	// Mapped reports whether the snapshot is served from an OS memory
	// mapping rather than heap-resident structures.
	Mapped() bool
	// SizeBytes is the size of the flat snapshot backing in bytes.
	SizeBytes() int64
}

// checkCSR32 validates one CSR offset array: len(off) == rows+1, starting at
// zero, monotonically non-decreasing, and spanning exactly poolLen entries.
func checkCSR32(what string, rows int, off []int32, poolLen int) error {
	if len(off) != rows+1 {
		return fmt.Errorf("core: flat %s offsets have length %d, want %d", what, len(off), rows+1)
	}
	if off[0] != 0 || int(off[rows]) != poolLen {
		return fmt.Errorf("core: flat %s offsets do not span the pool (%d..%d of %d)", what, off[0], off[rows], poolLen)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("core: flat %s offsets decrease at %d", what, i)
		}
	}
	return nil
}

// lookupIn binary-searches one ascending id span for a concept's value.
func lookupIn(ids []eks.ConceptID, vals []float64, id eks.ConceptID) float64 {
	if i, ok := slices.BinarySearch(ids, id); ok {
		return vals[i]
	}
	return 0
}

// FlatMappingsData is the column layout of an ingestion's mappings M and
// flagged set FEC, which is also the layout of the mapping sections of a
// flat (v4) bundle: the (instance, concept) pairs in ascending instance
// order, the flagged concepts in ascending order, and a CSR index from each
// flagged concept to its instances. Slices handed to NewFlatIngestion may
// alias a memory mapping; they are never mutated.
type FlatMappingsData struct {
	Instances []kb.InstanceID // ascending; every mapped instance
	Concepts  []eks.ConceptID // parallel: Instances[i] maps to Concepts[i]
	Flagged   []eks.ConceptID // ascending, distinct mapped concepts
	InstOff   []int32         // len(Flagged)+1, CSR into InstPool
	InstPool  []kb.InstanceID // ascending within each flagged concept's span
}

// MappingsFromPairs derives the flagged set and its instance index from
// (instance, concept) pairs in ascending instance order — the form Ingest's
// mapping stage produces and the v1/v2 bundles store.
func MappingsFromPairs(instances []kb.InstanceID, concepts []eks.ConceptID) FlatMappingsData {
	d := FlatMappingsData{Instances: instances, Concepts: concepts, InstOff: []int32{0}}
	if len(instances) != len(concepts) {
		return d // NewFlatIngestion reports the mismatch
	}
	order := make([]int32, len(concepts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(concepts[a], concepts[b]), cmp.Compare(a, b))
	})
	d.InstPool = make([]kb.InstanceID, len(order))
	for p, i := range order {
		if k := len(d.Flagged); k == 0 || d.Flagged[k-1] != concepts[i] {
			d.Flagged = append(d.Flagged, concepts[i])
			d.InstOff = append(d.InstOff, d.InstOff[k])
		}
		d.InstPool[p] = instances[i]
		d.InstOff[len(d.Flagged)]++
	}
	return d
}

// NewFlatIngestion assembles an Ingestion over mapping columns and
// already-built components — the one place the mapping invariants are
// checked, whether the columns come from MappingsFromPairs or from mapped
// bundle sections: pairs sorted by instance, a flagged set that is exactly
// the distinct mapped concepts, per-concept instance spans that agree with
// the pairs, and endpoints that exist in the store and graph. The caller
// attaches Materialized/Candidates/Backing afterwards.
func NewFlatIngestion(contexts []ontology.Context, g *eks.Graph, store *kb.Store, o *ontology.Ontology, ft *FrequencyTable, shortcutsAdded int, d FlatMappingsData) (*Ingestion, error) {
	n := len(d.Instances)
	if len(d.Concepts) != n {
		return nil, fmt.Errorf("core: mappings: %d instances, %d concepts", n, len(d.Concepts))
	}
	for i := 0; i < n; i++ {
		if i > 0 && d.Instances[i] <= d.Instances[i-1] {
			return nil, fmt.Errorf("core: mappings not strictly ascending at %d", i)
		}
		if _, ok := store.Instance(d.Instances[i]); !ok {
			return nil, fmt.Errorf("core: mapping references unknown instance %d", d.Instances[i])
		}
	}
	if err := checkCSR32("mapping", len(d.Flagged), d.InstOff, len(d.InstPool)); err != nil {
		return nil, err
	}
	if len(d.InstPool) != n {
		return nil, fmt.Errorf("core: mappings: %d pool instances, %d pairs", len(d.InstPool), n)
	}
	for i, cid := range d.Flagged {
		if i > 0 && cid <= d.Flagged[i-1] {
			return nil, fmt.Errorf("core: flagged set not strictly ascending at %d", i)
		}
		if _, ok := g.Concept(cid); !ok {
			return nil, fmt.Errorf("core: mapping references unknown concept %d", cid)
		}
		span := d.InstPool[d.InstOff[i]:d.InstOff[i+1]]
		if len(span) == 0 {
			return nil, fmt.Errorf("core: flagged concept %d has no instances", cid)
		}
		for j, iid := range span {
			if j > 0 && iid <= span[j-1] {
				return nil, fmt.Errorf("core: instances of concept %d not strictly ascending", cid)
			}
			if p, ok := slices.BinarySearch(d.Instances, iid); !ok || d.Concepts[p] != cid {
				return nil, fmt.Errorf("core: instance span of concept %d disagrees with mapping pairs at instance %d", cid, iid)
			}
		}
	}
	// The flagged walk's report column, by one merge of the two ascending id
	// lists. Customization only adds edges, so positions stay valid.
	fg := g.FlatData()
	slots := make([]int32, len(fg.IDs))
	next := 0
	for i, id := range fg.IDs {
		slots[i] = -1
		if next < len(d.Flagged) && d.Flagged[next] == id {
			slots[i] = int32(next)
			next++
		}
	}
	icRank, icDomain := rankICDomain(fg, slots, d.Flagged)
	return &Ingestion{
		Contexts:       contexts,
		Frequencies:    ft,
		Graph:          g,
		Store:          store,
		Ontology:       o,
		ShortcutsAdded: shortcutsAdded,
		maps:           d,
		slots:          slots,
		icRank:         icRank,
		icDomain:       icDomain,
	}, nil
}

// rankICDomain ranks the nodes a relaxation can ask an IC of: the flagged
// concepts, each at its slot, then their unflagged ancestors in node order.
// A candidate is flagged and its LCS with the query concept subsumes it, so
// Equation 3 names nothing else but the query concept itself. Shortcut edges
// only lead to ancestors: the closure is the same before customization and
// after.
func rankICDomain(fg eks.FlatGraphData, slots []int32, flagged []eks.ConceptID) (rank []int32, domain []eks.ConceptID) {
	const reached = -2
	rank = slices.Clone(slots)
	var stack []int32
	for node, slot := range slots {
		if slot >= 0 {
			stack = append(stack, int32(node))
		}
	}
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, up := range fg.UpTo[fg.UpOff[node]:fg.UpOff[node+1]] {
			if rank[up] == -1 {
				rank[up] = reached
				stack = append(stack, up)
			}
		}
	}
	domain = slices.Clone(flagged)
	for node, rk := range rank {
		if rk == reached {
			rank[node] = int32(len(domain))
			domain = append(domain, fg.IDs[node])
		}
	}
	return rank, domain
}

// flaggedFrontier starts the candidate walk of Algorithm 2 line 2 at q: a
// hop frontier that reports only flagged concepts, each as its slot — its
// position in the flagged set, which flaggedAt resolves. The caller Closes
// the frontier. ok is false for a concept the graph does not have.
func (ing *Ingestion) flaggedFrontier(q eks.ConceptID) (eks.HopFrontier, bool) {
	return ing.Graph.HopFrontier(q, ing.slots)
}

// flaggedAt returns the flagged concept in a slot and its instances, a view
// shared with the ingestion.
func (ing *Ingestion) flaggedAt(slot int32) (eks.ConceptID, []kb.InstanceID) {
	return ing.maps.Flagged[slot], ing.maps.InstPool[ing.maps.InstOff[slot]:ing.maps.InstOff[slot+1]]
}

// instanceCount is the number of instances of the flagged concept in a slot.
// An instance is mapped to one concept, so over distinct concepts the counts
// add up to distinct instances.
func (ing *Ingestion) instanceCount(slot int32) int {
	return int(ing.maps.InstOff[slot+1] - ing.maps.InstOff[slot])
}

// flaggedSlot returns a concept's slot in the flagged set.
func (ing *Ingestion) flaggedSlot(id eks.ConceptID) (int32, bool) {
	i, ok := slices.BinarySearch(ing.maps.Flagged, id)
	return int32(i), ok
}

// IsFlagged reports whether id is in the FEC set: external concepts with at
// least one corresponding KB instance. Only flagged concepts are returned by
// the online phase.
func (ing *Ingestion) IsFlagged(id eks.ConceptID) bool {
	_, ok := ing.flaggedSlot(id)
	return ok
}

// FlaggedCount returns the size of the FEC set.
func (ing *Ingestion) FlaggedCount() int { return len(ing.maps.Flagged) }

// FlaggedIDs returns the FEC set as a fresh ascending slice.
func (ing *Ingestion) FlaggedIDs() []eks.ConceptID { return slices.Clone(ing.maps.Flagged) }

// InstancesForConcept returns the KB instances mapped to a concept,
// ascending. The slice is a view shared with the ingestion — callers must
// not mutate it.
func (ing *Ingestion) InstancesForConcept(id eks.ConceptID) []kb.InstanceID {
	slot, ok := ing.flaggedSlot(id)
	if !ok {
		return nil
	}
	_, instances := ing.flaggedAt(slot)
	return instances
}

// MappingCount returns how many instances are mapped to a concept
// (instances the mapper could not place are absent).
func (ing *Ingestion) MappingCount() int { return len(ing.maps.Instances) }

// FlatMappings returns the mapping columns, the form a flat bundle stores.
// The slices alias the ingestion and must not be modified.
func (ing *Ingestion) FlatMappings() FlatMappingsData { return ing.maps }
