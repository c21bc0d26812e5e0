package kb

import (
	"cmp"
	"fmt"
	"slices"

	"medrelax/internal/idindex"
	"medrelax/internal/ontology"
)

// FlatStoreData is the column layout of a store's view, which is also the
// layout of the store sections of a flat (v4) bundle: instances in parallel
// ascending-ID slices, the lexicon and by-concept indexes as sorted-key CSR
// spans, and assertions as three parallel columns sorted by (subject,
// relationship, object) with a stored permutation providing the by-object
// order — so the whole ABox is served by binary search. Slices handed to
// NewFlatStore may alias a memory mapping; slices obtained from
// Store.FlatData alias the store. Neither side mutates them.
type FlatStoreData struct {
	IDs      []InstanceID // ascending
	Concepts []string
	Names    []string

	LexKeys []string     // sorted ascending, unique, normalized names
	LexOff  []int32      // len(LexKeys)+1
	LexIDs  []InstanceID // ascending within each key's span

	ConceptKeys []string     // sorted ascending, unique
	ConceptOff  []int32      // len(ConceptKeys)+1
	ConceptIDs  []InstanceID // ascending within each concept's span

	RelNames  []string     // sorted ascending, unique
	ASub      []InstanceID // sorted by (ASub, RelNames[ARel], AObj)
	ARel      []int32
	AObj      []InstanceID
	ByObjPerm []int32 // permutation of [0,len(ASub)) in (obj, rel, sub) order
}

// view returns the read representation, building it under the mutex when a
// mutation dropped it. Concurrent readers share one view.
func (s *Store) view() *FlatStoreData {
	if v := s.built.Load(); v != nil {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.built.Load(); v != nil {
		return v
	}
	v := s.columns()
	s.builds++
	s.built.Store(v)
	return v
}

// FlatData returns the view's columns, the form a flat bundle stores. The
// slices alias the store and must not be modified.
func (s *Store) FlatData() FlatStoreData { return *s.view() }

// columns lays the builder state out as flat columns.
func (s *Store) columns() *FlatStoreData {
	n := len(s.instances)
	d := &FlatStoreData{
		IDs:      make([]InstanceID, n),
		Concepts: make([]string, n),
		Names:    make([]string, n),
	}
	bySlot := make([]int32, n)
	for i := range bySlot {
		bySlot[i] = int32(i)
	}
	slices.SortFunc(bySlot, func(a, b int32) int { return cmp.Compare(s.instances[a].ID, s.instances[b].ID) })
	keys := make([]string, n)
	for i, slot := range bySlot {
		inst := &s.instances[slot]
		d.IDs[i], d.Concepts[i], d.Names[i] = inst.ID, inst.Concept, inst.Name
		keys[i] = s.keys[slot]
	}
	d.LexKeys, d.LexOff, d.LexIDs = groupByKey(keys, d.IDs)
	d.ConceptKeys, d.ConceptOff, d.ConceptIDs = groupByKey(d.Concepts, d.IDs)

	// Relationship names sort ascending, so comparing their indexes compares
	// the names.
	rel := make(map[string]int32)
	for _, a := range s.assertions {
		rel[a.Relationship] = 0
	}
	for name := range rel {
		d.RelNames = append(d.RelNames, name)
	}
	slices.Sort(d.RelNames)
	for i, name := range d.RelNames {
		rel[name] = int32(i)
	}
	type row struct {
		sub, obj InstanceID
		rel      int32
	}
	rows := make([]row, len(s.assertions))
	for i, a := range s.assertions {
		rows[i] = row{sub: a.Subject, obj: a.Object, rel: rel[a.Relationship]}
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(a.sub, b.sub), cmp.Compare(a.rel, b.rel), cmp.Compare(a.obj, b.obj))
	})
	d.ASub = make([]InstanceID, len(rows))
	d.ARel = make([]int32, len(rows))
	d.AObj = make([]InstanceID, len(rows))
	d.ByObjPerm = make([]int32, len(rows))
	for i, r := range rows {
		d.ASub[i], d.ARel[i], d.AObj[i] = r.sub, r.rel, r.obj
		d.ByObjPerm[i] = int32(i)
	}
	slices.SortFunc(d.ByObjPerm, func(i, j int32) int {
		a, b := rows[i], rows[j]
		return cmp.Or(cmp.Compare(a.obj, b.obj), cmp.Compare(a.rel, b.rel), cmp.Compare(a.sub, b.sub), cmp.Compare(i, j))
	})
	return d
}

// groupByKey builds one sorted-key CSR index over ids, where keys[i] is the
// key of ids[i]; blank keys are not indexed. ids ascend, and ties on the key
// keep that order, so every span ascends too.
func groupByKey(keys []string, ids []InstanceID) (uniq []string, off []int32, pool []InstanceID) {
	order := make([]int32, 0, len(ids))
	for i, k := range keys {
		if k != "" {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b))
	})
	off = []int32{0}
	pool = make([]InstanceID, len(order))
	for p, i := range order {
		if k := len(uniq); k == 0 || uniq[k-1] != keys[i] {
			uniq = append(uniq, keys[i])
			off = append(off, off[k])
		}
		pool[p] = ids[i]
		off[len(uniq)]++
	}
	return uniq, off, pool
}

// NewFlatStore adopts flat-bundle sections as the view of a read-only *Store
// bound to onto. It validates what AddInstance/AddAssertion enforce piecewise
// and what the view build guarantees by construction — known concepts,
// ontology-compatible assertions, sorted columns and spans, a genuine
// by-object permutation — so a corrupted bundle is rejected rather than
// served. Mutating methods on the returned store fail.
func NewFlatStore(onto *ontology.Ontology, d FlatStoreData) (*Store, error) {
	n := len(d.IDs)
	if len(d.Concepts) != n || len(d.Names) != n {
		return nil, fmt.Errorf("kb: flat store: %d ids, %d concepts, %d names", n, len(d.Concepts), len(d.Names))
	}
	for i := 0; i < n; i++ {
		if i > 0 && d.IDs[i] <= d.IDs[i-1] {
			return nil, fmt.Errorf("kb: flat store: instance ids not strictly ascending at %d", i)
		}
		if err := checkInstance(onto, Instance{ID: d.IDs[i], Concept: d.Concepts[i], Name: d.Names[i]}); err != nil {
			return nil, err
		}
	}
	ids := idindex.New(d.IDs)
	if err := checkIndex("lexicon", ids, d.LexKeys, d.LexOff, d.LexIDs); err != nil {
		return nil, err
	}
	if err := checkIndex("by-concept", ids, d.ConceptKeys, d.ConceptOff, d.ConceptIDs); err != nil {
		return nil, err
	}
	if err := d.checkAssertions(onto, ids); err != nil {
		return nil, err
	}
	s := &Store{onto: onto, readOnly: true, n: n}
	s.built.Store(&d)
	return s, nil
}

// checkIndex validates one sorted-key CSR index: ascending unique keys,
// monotonic offsets bounded by the ID pool, and spans of ascending IDs that
// exist, found through ids, the index of the instance column.
func checkIndex(what string, ids idindex.Index[InstanceID], keys []string, off []int32, pool []InstanceID) error {
	if len(off) != len(keys)+1 {
		return fmt.Errorf("kb: flat store: %s offsets have length %d, want %d", what, len(off), len(keys)+1)
	}
	if off[0] != 0 || int(off[len(keys)]) != len(pool) {
		return fmt.Errorf("kb: flat store: %s offsets do not span the id pool", what)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("kb: flat store: %s offsets decrease at %d", what, i)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("kb: flat store: %s keys not strictly ascending at %d", what, i)
		}
	}
	for i, key := range keys {
		span := pool[off[i]:off[i+1]]
		for j, id := range span {
			if j > 0 && id <= span[j-1] {
				return fmt.Errorf("kb: flat store: %s ids of %q not strictly ascending", what, key)
			}
			if _, ok := ids.Find(id); !ok {
				return fmt.Errorf("kb: flat store: %s references unknown instance %d", what, id)
			}
		}
	}
	return nil
}

// checkAssertions validates the assertion columns: equal lengths, ascending
// relationship names, known endpoints and relationship indexes, ontology
// domain/range compatibility, (sub, rel, obj) sort order, and that ByObjPerm
// is a permutation in (obj, rel, sub) order. Endpoints are found through ids,
// the index of the instance column.
func (d *FlatStoreData) checkAssertions(onto *ontology.Ontology, ids idindex.Index[InstanceID]) error {
	a := len(d.ASub)
	if len(d.ARel) != a || len(d.AObj) != a || len(d.ByObjPerm) != a {
		return fmt.Errorf("kb: flat store: assertion columns disagree: %d/%d/%d/%d",
			a, len(d.ARel), len(d.AObj), len(d.ByObjPerm))
	}
	for i := 1; i < len(d.RelNames); i++ {
		if d.RelNames[i] <= d.RelNames[i-1] {
			return fmt.Errorf("kb: flat store: relationship names not strictly ascending at %d", i)
		}
	}
	// Compatibility is per (relationship, subject concept, object concept);
	// memoizing on the triple keeps this O(A) map lookups.
	type triple struct {
		rel      int32
		sub, obj string
	}
	checked := make(map[triple]bool)
	for i := 0; i < a; i++ {
		if d.ARel[i] < 0 || int(d.ARel[i]) >= len(d.RelNames) {
			return fmt.Errorf("kb: flat store: assertion %d has relationship index %d of %d", i, d.ARel[i], len(d.RelNames))
		}
		sub, ok := ids.Find(d.ASub[i])
		if !ok {
			return errEndpoint("subject", d.ASub[i])
		}
		obj, ok := ids.Find(d.AObj[i])
		if !ok {
			return errEndpoint("object", d.AObj[i])
		}
		t := triple{rel: d.ARel[i], sub: d.Concepts[sub], obj: d.Concepts[obj]}
		if !checked[t] {
			if err := checkCompatible(onto, d.RelNames[t.rel], t.sub, t.obj); err != nil {
				return err
			}
			checked[t] = true
		}
		if i > 0 && d.compareRows(i, i-1, false) < 0 {
			return fmt.Errorf("kb: flat store: assertions not sorted at %d", i)
		}
	}
	seen := make([]bool, a)
	for i, p := range d.ByObjPerm {
		if p < 0 || int(p) >= a || seen[p] {
			return fmt.Errorf("kb: flat store: by-object permutation invalid at %d", i)
		}
		seen[p] = true
		if i > 0 && d.compareRows(int(p), int(d.ByObjPerm[i-1]), true) < 0 {
			return fmt.Errorf("kb: flat store: by-object permutation not sorted at %d", i)
		}
	}
	return nil
}

// compareRows orders assertion rows i and j by (subject, relationship,
// object), or by (object, relationship, subject) when byObject is set.
func (d *FlatStoreData) compareRows(i, j int, byObject bool) int {
	first, last := d.ASub, d.AObj
	if byObject {
		first, last = last, first
	}
	return cmp.Or(cmp.Compare(first[i], first[j]), cmp.Compare(d.ARel[i], d.ARel[j]), cmp.Compare(last[i], last[j]))
}

// keySpan binary-searches a sorted key index and returns its ID span.
func keySpan(keys []string, off []int32, pool []InstanceID, key string) []InstanceID {
	i, ok := slices.BinarySearch(keys, key)
	if !ok {
		return nil
	}
	return pool[off[i]:off[i+1]]
}

// copyIDs returns a fresh, never-nil copy of a span of the view.
func copyIDs(span []InstanceID) []InstanceID {
	out := make([]InstanceID, len(span))
	copy(out, span)
	return out
}
