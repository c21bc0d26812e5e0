// Package kb implements the instance store (ABox) of the medical knowledge
// base: concept-typed instances, a normalized-name lexicon, and relationship
// assertions between instances that query answering runs over.
//
// The store corresponds to the "Instances (data)" box of the paper's
// Figure 3: instances such as "fever" or "renal impairment" typed by domain
// ontology concepts such as "Finding", plus edges such as
// (amoxicillin) -treat-> (bronchitis indication) -hasFinding-> (bronchitis).
package kb

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"medrelax/internal/ontology"
	"medrelax/internal/stringutil"
)

// InstanceID identifies an instance in the store.
type InstanceID int64

// Instance is a data value of the KB: a surface name typed by a domain
// ontology concept.
type Instance struct {
	ID      InstanceID
	Concept string
	Name    string
}

// Assertion is a relationship edge between two instances, e.g.
// (drug:amoxicillin) -treat-> (indication:I-17).
type Assertion struct {
	Subject      InstanceID
	Relationship string
	Object       InstanceID
}

// Store is an instance store bound to a domain ontology. It has one read
// representation, the view (flat.go): columns laid out exactly as
// FlatStoreData. AddInstance and AddAssertion only append to a small builder
// state; the first read after a mutation builds the view from it, and
// NewFlatStore adopts stored columns as the view of a read-only store. The
// zero value is not usable; call NewStore.
type Store struct {
	onto *ontology.Ontology

	// Builder state: what the mutators check against and append to, in
	// insertion order. Empty on a read-only store.
	instances  []Instance
	keys       []string             // normalized name per instance
	slot       map[InstanceID]int32 // id -> index into instances
	assertions []Assertion
	readOnly   bool

	// n answers Len without the view, so a loader may poll it between
	// mutations for free.
	n int

	// built is the read representation: constructed under mu by the first
	// read after a mutation, dropped by every mutation, adopted once and for
	// all by NewFlatStore. builds counts the constructions.
	mu     sync.Mutex
	built  atomic.Pointer[FlatStoreData]
	builds int
}

var errReadOnly = fmt.Errorf("kb: store is a read-only flat snapshot view")

// NewStore returns an empty store validating instance types and assertion
// relationships against onto.
func NewStore(onto *ontology.Ontology) *Store {
	return &Store{
		onto:       onto,
		instances:  make([]Instance, 0),
		keys:       make([]string, 0),
		slot:       make(map[InstanceID]int32),
		assertions: make([]Assertion, 0),
	}
}

// Ontology returns the domain ontology this store is bound to.
func (s *Store) Ontology() *ontology.Ontology { return s.onto }

// AddInstance inserts an instance; its concept must exist in the ontology.
func (s *Store) AddInstance(inst Instance) error {
	if s.readOnly {
		return errReadOnly
	}
	if err := checkInstance(s.onto, inst); err != nil {
		return err
	}
	if _, ok := s.slot[inst.ID]; ok {
		return fmt.Errorf("kb: duplicate instance id %d", inst.ID)
	}
	s.slot[inst.ID] = int32(len(s.instances))
	s.instances = append(s.instances, inst)
	s.keys = append(s.keys, stringutil.Normalize(inst.Name))
	s.n++
	s.built.Store(nil)
	return nil
}

// checkInstance is the per-instance invariant, shared by AddInstance and the
// NewFlatStore validator.
func checkInstance(onto *ontology.Ontology, inst Instance) error {
	if inst.Name == "" {
		return fmt.Errorf("kb: instance %d has empty name", inst.ID)
	}
	if !onto.HasConcept(inst.Concept) {
		return fmt.Errorf("kb: instance %d has unknown concept %q", inst.ID, inst.Concept)
	}
	return nil
}

// AddAssertion inserts a relationship edge. Both endpoints must exist, and
// the relationship must be declared in the ontology with compatible
// domain/range for the endpoint concepts.
func (s *Store) AddAssertion(a Assertion) error {
	if s.readOnly {
		return errReadOnly
	}
	sub, ok := s.slot[a.Subject]
	if !ok {
		return errEndpoint("subject", a.Subject)
	}
	obj, ok := s.slot[a.Object]
	if !ok {
		return errEndpoint("object", a.Object)
	}
	if err := checkCompatible(s.onto, a.Relationship, s.instances[sub].Concept, s.instances[obj].Concept); err != nil {
		return err
	}
	s.assertions = append(s.assertions, a)
	s.built.Store(nil)
	return nil
}

func errEndpoint(role string, id InstanceID) error {
	return fmt.Errorf("kb: assertion %s %d not found", role, id)
}

// checkCompatible is the per-assertion ontology invariant, shared by
// AddAssertion and the NewFlatStore validator: some declaration of rel must
// admit the endpoint concepts as domain and range.
func checkCompatible(onto *ontology.Ontology, rel, subConcept, objConcept string) error {
	for _, r := range onto.RelationshipsNamed(rel) {
		if onto.IsSubConceptOf(subConcept, r.Domain) && onto.IsSubConceptOf(objConcept, r.Range) {
			return nil
		}
	}
	return fmt.Errorf("kb: assertion %s(%s,%s) violates ontology domain/range", rel, subConcept, objConcept)
}

// Instance returns the instance with the given ID.
func (s *Store) Instance(id InstanceID) (Instance, bool) {
	v := s.view()
	i, ok := slices.BinarySearch(v.IDs, id)
	if !ok {
		return Instance{}, false
	}
	return Instance{ID: id, Concept: v.Concepts.At(i), Name: v.Names.At(i)}, true
}

// Len returns the number of instances.
func (s *Store) Len() int { return s.n }

// InstancesOf returns the IDs of all instances of the exact concept,
// ascending.
func (s *Store) InstancesOf(concept string) []InstanceID {
	v := s.view()
	return copyIDs(keySpan(v.ConceptKeys, v.ConceptOff, v.ConceptIDs, concept))
}

// AllInstances returns every instance, sorted by ID.
func (s *Store) AllInstances() []Instance {
	v := s.view()
	out := make([]Instance, len(v.IDs))
	for i, id := range v.IDs {
		out[i] = Instance{ID: id, Concept: v.Concepts.At(i), Name: v.Names.At(i)}
	}
	return out
}

// LookupName returns the instances whose name normalizes to the same form
// as name, ascending.
func (s *Store) LookupName(name string) []InstanceID {
	return s.IDsForLexiconKey(stringutil.Normalize(name))
}

// IDsForLexiconKey returns the instance IDs indexed under an
// already-normalized key, ascending.
func (s *Store) IDsForLexiconKey(key string) []InstanceID {
	v := s.view()
	return copyIDs(keySpan(v.LexKeys, v.LexOff, v.LexIDs, key))
}

// Subjects returns the subjects of all assertions with the given
// relationship whose object is obj, ascending. This answers queries such as
// "which indications have finding F". Within one object the by-object
// permutation is ordered by (relationship, subject), so the filtered span is
// already sorted.
func (s *Store) Subjects(relationship string, obj InstanceID) []InstanceID {
	v := s.view()
	lo := sort.Search(len(v.ByObjPerm), func(i int) bool { return v.AObj[v.ByObjPerm[i]] >= obj })
	var out []InstanceID
	for ; lo < len(v.ByObjPerm); lo++ {
		p := v.ByObjPerm[lo]
		if v.AObj[p] != obj {
			break
		}
		if v.RelNames.At(int(v.ARel[p])) == relationship {
			out = append(out, v.ASub[p])
		}
	}
	return out
}

// Objects returns the objects of all assertions with the given relationship
// whose subject is sub, ascending: within one subject the assertion columns
// are ordered by (relationship, object).
func (s *Store) Objects(relationship string, sub InstanceID) []InstanceID {
	v := s.view()
	lo, _ := slices.BinarySearch(v.ASub, sub)
	var out []InstanceID
	for ; lo < len(v.ASub) && v.ASub[lo] == sub; lo++ {
		if v.RelNames.At(int(v.ARel[lo])) == relationship {
			out = append(out, v.AObj[lo])
		}
	}
	return out
}

// PathQuery walks a chain of relationships backwards from a terminal
// instance: given relationships [r1, r2] and instance x, it returns all
// subjects s such that s -r1-> m -r2-> x for some m. This implements the
// Drug-treat-Indication-hasFinding-Finding style query shapes of the
// paper's examples ("which drugs treat fever": walk hasFinding then treat
// backwards from the finding instance).
func (s *Store) PathQuery(relationships []string, terminal InstanceID) []InstanceID {
	frontier := map[InstanceID]bool{terminal: true}
	for i := len(relationships) - 1; i >= 0; i-- {
		rel := relationships[i]
		next := map[InstanceID]bool{}
		for id := range frontier {
			for _, sub := range s.Subjects(rel, id) {
				next[sub] = true
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	out := make([]InstanceID, 0, len(frontier))
	for id := range frontier {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
