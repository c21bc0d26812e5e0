// Package eks models an external knowledge source (EKS) such as SNOMED CT:
// a rooted directed acyclic graph of concepts connected by subsumption
// relationships A ⊑ B ("A specializes B", "B generalizes A").
//
// The package distinguishes two metrics over the graph, following the
// paper's offline customization step (Section 5.1):
//
//   - the application (hop) metric, in which every edge — including the
//     shortcut edges added during ingestion — counts as one hop; this is the
//     metric used to gather candidates within radius r online, and
//   - the semantic (original) metric, in which an edge contributes its
//     attached original distance (1 for native subsumption edges, the
//     pre-customization path length for shortcut edges); this is the metric
//     used by the similarity measure, so that adding shortcut edges never
//     changes similarity scores.
//
// A Graph has one read representation, the frozen view (frozen.go): columns
// laid out exactly as FlatGraphData. The mutators only append to a small
// builder state; the first read after a mutation builds the view from it,
// and NewFlatGraph adopts stored columns as the view of a read-only graph.
package eks

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"medrelax/internal/stringutil"
)

// ConceptID identifies a concept in the external knowledge source. IDs are
// SCTID-style opaque integers; they carry no structural meaning.
type ConceptID int64

// Concept is a node of the external knowledge source: a preferred name plus
// zero or more synonyms.
type Concept struct {
	ID       ConceptID
	Name     string
	Synonyms []string
}

// Edge is a subsumption edge From ⊑ To: traversing it From→To is a
// generalization, To→From a specialization. Dist is the number of original
// subsumption hops the edge stands for: 1 for native edges, the length of
// the replaced path for shortcut edges added during ingestion.
type Edge struct {
	From, To ConceptID
	Dist     int
	Shortcut bool
}

// Graph is an external knowledge source. The zero value is not usable; call
// New, or NewFlatGraph for a read-only graph over stored columns.
type Graph struct {
	// Builder state: what the mutators check against and append to, in
	// insertion order. Empty on a read-only graph.
	concepts []Concept
	slot     map[ConceptID]int32 // id -> index into concepts
	edges    []builderEdge
	edgeSet  map[uint64]struct{} // from<<32|to slots: the duplicate-edge check
	names    []nameEntry         // every indexed surface form
	readOnly bool

	// n, root and hasRoot answer Len and Root without the view, so a loader
	// may poll them between mutations for free.
	n       int
	root    ConceptID
	hasRoot bool

	// built is the frozen read representation: constructed under mu by the
	// first read after a mutation (or eagerly by Freeze), dropped by every
	// mutation, adopted once and for all by NewFlatGraph. builds counts the
	// constructions.
	mu     sync.Mutex
	built  atomic.Pointer[frozen]
	builds int
}

// builderEdge is an edge between two concept slots.
type builderEdge struct {
	from, to int32
	dist     int32
	shortcut bool
}

// nameEntry indexes one normalized surface form for a concept.
type nameEntry struct {
	key string
	id  ConceptID
}

var errReadOnly = fmt.Errorf("eks: graph is a read-only flat snapshot view")

// New returns an empty graph.
func New() *Graph {
	return NewSized(0)
}

// NewSized returns an empty graph with capacity hints for n concepts, so
// bulk loads (persist restore, generators) avoid regrowing while they
// insert.
func NewSized(n int) *Graph {
	return &Graph{
		concepts: make([]Concept, 0, n),
		slot:     make(map[ConceptID]int32, n),
		edges:    make([]builderEdge, 0, n),
		edgeSet:  make(map[uint64]struct{}, n),
		names:    make([]nameEntry, 0, n),
	}
}

// writable is the gate every mutator passes: a graph adopted from flat
// columns has no builder state to mutate.
func (g *Graph) writable() error {
	if g.readOnly {
		return errReadOnly
	}
	return nil
}

// AddConcept inserts a concept. It returns an error if the ID is already
// present or the name is empty.
func (g *Graph) AddConcept(c Concept) error {
	if err := g.writable(); err != nil {
		return err
	}
	if c.Name == "" {
		return fmt.Errorf("eks: concept %d has empty name", c.ID)
	}
	if _, ok := g.slot[c.ID]; ok {
		return fmt.Errorf("eks: duplicate concept id %d", c.ID)
	}
	g.slot[c.ID] = int32(len(g.concepts))
	g.concepts = append(g.concepts, c)
	g.n++
	g.indexName(c.Name, c.ID)
	for _, s := range c.Synonyms {
		g.indexName(s, c.ID)
	}
	g.built.Store(nil)
	return nil
}

// indexName records a surface form for the name index; the view build
// groups the entries by key and drops repeats.
func (g *Graph) indexName(name string, id ConceptID) {
	if key := stringutil.Normalize(name); key != "" {
		g.names = append(g.names, nameEntry{key: key, id: id})
	}
}

// AddSynonym attaches an additional surface form to an existing concept and
// indexes it for LookupName. Unknown concepts and blank synonyms are
// ignored, as is every call on a read-only graph.
func (g *Graph) AddSynonym(id ConceptID, synonym string) {
	i, ok := g.slot[id]
	if g.writable() != nil || !ok || stringutil.Normalize(synonym) == "" {
		return
	}
	c := &g.concepts[i]
	c.Synonyms = append(c.Synonyms, synonym)
	g.indexName(synonym, id)
	g.built.Store(nil)
}

// SetRoot declares the top concept (owl:Thing). Validate checks that every
// concept is a descendant of the root.
func (g *Graph) SetRoot(id ConceptID) error {
	if err := g.writable(); err != nil {
		return err
	}
	if _, ok := g.slot[id]; !ok {
		return fmt.Errorf("eks: root %d not a concept", id)
	}
	g.root = id
	g.hasRoot = true
	g.built.Store(nil)
	return nil
}

// Root returns the top concept ID. ok is false if SetRoot was never called.
func (g *Graph) Root() (id ConceptID, ok bool) { return g.root, g.hasRoot }

// AddSubsumption records child ⊑ parent as a native one-hop edge.
func (g *Graph) AddSubsumption(child, parent ConceptID) error {
	return g.addEdge(Edge{From: child, To: parent, Dist: 1})
}

// AddShortcutEdge records an application-specific edge child ⊑ parent that
// stands for dist original hops (Algorithm 1, line 21).
func (g *Graph) AddShortcutEdge(child, parent ConceptID, dist int) error {
	if dist < 2 {
		return fmt.Errorf("eks: shortcut edge %d->%d must span at least 2 hops, got %d", child, parent, dist)
	}
	return g.addEdge(Edge{From: child, To: parent, Dist: dist, Shortcut: true})
}

func (g *Graph) addEdge(e Edge) error {
	if err := g.writable(); err != nil {
		return err
	}
	if e.From == e.To {
		return fmt.Errorf("eks: self edge on %d", e.From)
	}
	from, ok := g.slot[e.From]
	if !ok {
		return fmt.Errorf("eks: edge source %d not a concept", e.From)
	}
	to, ok := g.slot[e.To]
	if !ok {
		return fmt.Errorf("eks: edge target %d not a concept", e.To)
	}
	key := uint64(from)<<32 | uint64(to)
	if _, dup := g.edgeSet[key]; dup {
		return fmt.Errorf("eks: duplicate edge %d->%d", e.From, e.To)
	}
	g.edgeSet[key] = struct{}{}
	g.edges = append(g.edges, builderEdge{from: from, to: to, dist: int32(e.Dist), shortcut: e.Shortcut})
	g.built.Store(nil)
	return nil
}

// Concept returns the concept with the given ID. Its Synonyms alias the
// graph's storage and must not be modified.
func (g *Graph) Concept(id ConceptID) (Concept, bool) {
	v := g.view()
	i, ok := v.node(id)
	if !ok {
		return Concept{}, false
	}
	c := Concept{ID: id, Name: v.Names[i]}
	if lo, hi := v.SynOff[i], v.SynOff[i+1]; lo < hi {
		c.Synonyms = v.Syns[lo:hi:hi]
	}
	return c, true
}

// Len returns the number of concepts.
func (g *Graph) Len() int { return g.n }

// EdgeCount returns the number of edges, counting shortcuts.
func (g *Graph) EdgeCount() int { return len(g.view().UpTo) }

// ShortcutCount returns the number of shortcut edges.
func (g *Graph) ShortcutCount() int {
	v := g.view()
	n := 0
	for i, end := range v.UpNativeEnd {
		n += int(v.UpOff[i+1] - end)
	}
	return n
}

// ConceptIDs returns all concept IDs in ascending order.
func (g *Graph) ConceptIDs() []ConceptID { return slices.Clone(g.view().IDs) }

// LookupName returns the concepts whose preferred name or any synonym
// normalizes to the same form as name, in ascending ID order.
func (g *Graph) LookupName(name string) []ConceptID {
	out := g.IDsForNameKey(stringutil.Normalize(name))
	slices.Sort(out)
	return out
}

// NameKeys returns every normalized name key in the index, in ascending
// order. It is intended for matchers that scan the lexicon.
func (g *Graph) NameKeys() []string { return slices.Clone(g.view().NameKeys) }

// IDsForNameKey returns the concept IDs indexed under an already-normalized
// key, in the order they were indexed; empty when the key is unknown.
func (g *Graph) IDsForNameKey(key string) []ConceptID {
	v := g.view()
	i, ok := slices.BinarySearch(v.NameKeys, key)
	if !ok {
		return []ConceptID{}
	}
	return slices.Clone(v.KeyIDs[v.KeyOff[i]:v.KeyOff[i+1]])
}

// Parents returns the native (non-shortcut) direct parents of id.
func (g *Graph) Parents(id ConceptID) []ConceptID { return g.view().nativeNeighbors(id, true) }

// Children returns the native (non-shortcut) direct children of id.
func (g *Graph) Children(id ConceptID) []ConceptID { return g.view().nativeNeighbors(id, false) }

// UpEdges returns all edges (native and shortcut) from id toward its
// generalizations, native edges first.
func (g *Graph) UpEdges(id ConceptID) []Edge { return g.view().edges(id, true) }

// DownEdges returns all edges (native and shortcut) from id toward its
// specializations, native edges first.
func (g *Graph) DownEdges(id ConceptID) []Edge { return g.view().edges(id, false) }

// Ancestors returns the set of all concepts reachable from id by following
// native subsumption edges upward, excluding id itself.
func (g *Graph) Ancestors(id ConceptID) map[ConceptID]bool { return g.view().reachNative(id, true) }

// Descendants returns the set of all concepts reachable from id by
// following native subsumption edges downward, excluding id itself.
func (g *Graph) Descendants(id ConceptID) map[ConceptID]bool {
	return g.view().reachNative(id, false)
}

// DescendantCount returns |Descendants(id)|. Used by the intrinsic
// (corpus-free) information-content measure; counting does not materialize
// the descendant set.
func (g *Graph) DescendantCount(id ConceptID) int {
	v := g.view()
	src, ok := v.node(id)
	if !ok {
		return 0
	}
	s := v.getScratch()
	n := v.countDescendants(src, s)
	v.putScratch(s)
	return n
}

// DescendantCounts returns DescendantCount of every concept, in ConceptIDs
// order, in one children-before-parents pass. A concept with no descendant
// that has two native parents heads a tree, and its count is the sum over its
// children; only the concepts above a shared descendant are walked.
func (g *Graph) DescendantCounts() []int32 {
	v := g.view()
	n := len(v.IDs)
	counts := make([]int32, n)
	pending := make([]int32, n) // native children not yet counted
	shared := make([]bool, n)   // some descendant has two native parents
	var ready []int32
	for i := range pending {
		if pending[i] = v.DownNativeEnd[i] - v.DownOff[i]; pending[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	s := v.getScratch()
	defer v.putScratch(s)
	walk := func(node int32) {
		s.next()
		counts[node] = int32(v.countDescendants(node, s))
	}
	for len(ready) > 0 {
		cur := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		if shared[cur] {
			walk(cur)
		}
		parents := v.UpTo[v.UpOff[cur]:v.UpNativeEnd[cur]]
		for _, p := range parents {
			counts[p] += counts[cur] + 1
			if shared[cur] || len(parents) > 1 {
				shared[p] = true
			}
			if pending[p]--; pending[p] == 0 {
				ready = append(ready, p)
			}
		}
	}
	// Concepts on a native cycle never become ready; Validate reports them,
	// and their counts are still DescendantCount's.
	for i := range pending {
		if pending[i] > 0 {
			walk(int32(i))
		}
	}
	return counts
}

// TopologicalOrder returns every concept with children before parents
// (Algorithm 1, line 12), considering native edges only. It returns an
// error if the native subsumption graph has a cycle.
func (g *Graph) TopologicalOrder() ([]ConceptID, error) { return g.view().topologicalOrder() }

// Validate checks structural invariants: the graph is a DAG over native
// edges, a root is set, and every concept other than the root reaches the
// root by following native subsumption upward.
func (g *Graph) Validate() error {
	if !g.hasRoot {
		return fmt.Errorf("eks: no root set")
	}
	return g.view().validate(g.root)
}
