package kb_test

// Tests of the store's one view: a store built through the mutators and the
// same columns adopted by NewFlatStore must be indistinguishable to every
// exported read; hostile columns must be rejected before any read can index
// with them; and the view must be built a bounded number of times.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/ontology"
	"medrelax/internal/strtab"
	"medrelax/internal/synthkb"
)

// world generates a MED store over a seeded synthkb world.
func world(t *testing.T, seed int64, conditionsPerPair, drugs int) (*synthkb.World, *medkb.MED) {
	t.Helper()
	w, med, _, err := medkb.GenerateWorld(seed, synthkb.Config{ConditionsPerPair: conditionsPerPair}, medkb.Config{Drugs: drugs})
	if err != nil {
		t.Fatal(err)
	}
	return w, med
}

// scrambled is a hand-built store that the generators never produce: IDs
// inserted out of order, two instances sharing a normalized name with the
// larger ID first, a name that normalizes to nothing, and a repeated
// assertion.
func scrambled(t *testing.T) *kb.Store {
	t.Helper()
	o := ontology.New()
	for _, c := range []ontology.Concept{{Name: "Drug"}, {Name: "Indication"}, {Name: "Finding"}} {
		if err := o.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []ontology.Relationship{
		{Name: "treat", Domain: "Drug", Range: "Indication"},
		{Name: "hasFinding", Domain: "Indication", Range: "Finding"},
	} {
		if err := o.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	s := kb.NewStore(o)
	for _, inst := range []kb.Instance{
		{ID: 90, Concept: "Finding", Name: "Fever"},
		{ID: 7, Concept: "Finding", Name: "fever"},
		{ID: 50, Concept: "Drug", Name: "aspirin"},
		{ID: 3, Concept: "Indication", Name: "ind"},
		{ID: 60, Concept: "Indication", Name: "?!"},
		{ID: 1, Concept: "Drug", Name: "ibuprofen"},
	} {
		if err := s.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []kb.Assertion{
		{Subject: 50, Relationship: "treat", Object: 60},
		{Subject: 60, Relationship: "hasFinding", Object: 90},
		{Subject: 1, Relationship: "treat", Object: 3},
		{Subject: 3, Relationship: "hasFinding", Object: 7},
		{Subject: 50, Relationship: "treat", Object: 3},
		{Subject: 3, Relationship: "hasFinding", Object: 7},
		{Subject: 3, Relationship: "hasFinding", Object: 90},
	} {
		if err := s.AddAssertion(a); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func adopt(t *testing.T, s *kb.Store) *kb.Store {
	t.Helper()
	adopted, err := kb.NewFlatStore(s.Ontology(), s.FlatData())
	if err != nil {
		t.Fatalf("NewFlatStore(s.FlatData()): %v", err)
	}
	return adopted
}

// assertSameReads compares every exported read of two stores.
func assertSameReads(t *testing.T, want, got *kb.Store) {
	t.Helper()
	eq := func(what string, w, g any) {
		t.Helper()
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s differs:\n built:   %v\n adopted: %v", what, w, g)
		}
	}
	eq("Len", want.Len(), got.Len())
	eq("AllInstances", want.AllInstances(), got.AllInstances())
	eq("LexiconKeys", want.FlatData().LexKeys.Strings(), got.FlatData().LexKeys.Strings())
	eq("FlatData", want.FlatData(), got.FlatData())
	if !slices.IsSorted(want.FlatData().LexKeys.Strings()) {
		t.Fatal("LexiconKeys not ascending")
	}
	for _, key := range append(want.FlatData().LexKeys.Strings(), "no such key", "") {
		eq("IDsForLexiconKey "+key, want.IDsForLexiconKey(key), got.IDsForLexiconKey(key))
		eq("LookupName "+key, want.LookupName(strings.ToUpper(key)), got.LookupName(strings.ToUpper(key)))
		if !slices.IsSorted(got.LookupName(key)) {
			t.Fatalf("LookupName(%q) not ascending: %v", key, got.LookupName(key))
		}
	}
	rels := map[string]bool{}
	for _, r := range want.Ontology().Relationships() {
		rels[r.Name] = true
	}
	for _, c := range append(want.Ontology().ConceptNames(), "NoSuchConcept") {
		eq("InstancesOf "+c, want.InstancesOf(c), got.InstancesOf(c))
	}
	insts := want.AllInstances()
	probe := append(insts, kb.Instance{ID: insts[len(insts)-1].ID + 1})
	for _, inst := range probe {
		wi, wok := want.Instance(inst.ID)
		gi, gok := got.Instance(inst.ID)
		eq("Instance", [2]any{wi, wok}, [2]any{gi, gok})
		for rel := range rels {
			eq("Subjects", want.Subjects(rel, inst.ID), got.Subjects(rel, inst.ID))
			eq("Objects", want.Objects(rel, inst.ID), got.Objects(rel, inst.ID))
			if !slices.IsSorted(got.Subjects(rel, inst.ID)) || !slices.IsSorted(got.Objects(rel, inst.ID)) {
				t.Fatalf("Subjects/Objects(%s, %d) not ascending", rel, inst.ID)
			}
		}
		eq("PathQuery", want.PathQuery([]string{"treat", "hasFinding"}, inst.ID), got.PathQuery([]string{"treat", "hasFinding"}, inst.ID))
	}
}

func assertRejectsMutation(t *testing.T, s *kb.Store) {
	t.Helper()
	insts := s.AllInstances()
	if err := s.AddInstance(kb.Instance{ID: insts[len(insts)-1].ID + 1, Concept: insts[0].Concept, Name: "new"}); err == nil {
		t.Error("adopted store accepted AddInstance")
	}
	d := s.FlatData()
	if err := s.AddAssertion(kb.Assertion{Subject: d.ASub[0], Relationship: d.RelNames.At(int(d.ARel[0])), Object: d.AObj[0]}); err == nil {
		t.Error("adopted store accepted AddAssertion")
	}
}

func TestAdoptedStoreMatchesBuilt(t *testing.T) {
	stores := map[string]*kb.Store{"scrambled": scrambled(t)}
	for _, c := range []struct {
		name         string
		seed         int64
		perPair, drg int
	}{{"seed11", 11, 2, 20}, {"seed23", 23, 3, 35}, {"seed42", 42, 6, 60}} {
		_, med := world(t, c.seed, c.perPair, c.drg)
		stores[c.name] = med.Store
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			adopted := adopt(t, s)
			assertSameReads(t, s, adopted)
			assertRejectsMutation(t, adopted)
			// Adopting what an adopted store hands out is a fixed point.
			assertSameReads(t, adopted, adopt(t, adopted))
		})
	}
}

// A mutation after a read drops the view; the next read sees the new state.
func TestViewInvalidatedByMutation(t *testing.T) {
	s := scrambled(t)
	before := len(s.FlatData().ASub)
	if err := s.AddInstance(kb.Instance{ID: 2, Concept: "Finding", Name: "Cough"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddAssertion(kb.Assertion{Subject: 3, Relationship: "hasFinding", Object: 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.LookupName("cough"); !slices.Equal(got, []kb.InstanceID{2}) {
		t.Errorf("LookupName(cough) after mutation = %v", got)
	}
	if got := s.Objects("hasFinding", 3); !slices.Equal(got, []kb.InstanceID{2, 7, 7, 90}) {
		t.Errorf("Objects(hasFinding, 3) after mutation = %v", got)
	}
	if got := len(s.FlatData().ASub); got != before+1 {
		t.Errorf("%d assertions after mutation, want %d", got, before+1)
	}
	assertSameReads(t, s, adopt(t, s))
}

// TestNewFlatStoreRejectsHostileColumns corrupts one column at a time of a
// valid layout; every case must fail in NewFlatStore.
// cloneColumns deep-copies a store's numeric columns, so a case cannot
// corrupt its neighbours through the shared store; a case replaces a string
// column (edited) instead of writing to it.
func cloneColumns(s *kb.Store) kb.FlatStoreData {
	d := s.FlatData()
	return kb.FlatStoreData{
		IDs: slices.Clone(d.IDs), Concepts: d.Concepts, Names: d.Names,
		LexKeys: d.LexKeys, LexOff: slices.Clone(d.LexOff), LexIDs: slices.Clone(d.LexIDs),
		ConceptKeys: d.ConceptKeys, ConceptOff: slices.Clone(d.ConceptOff), ConceptIDs: slices.Clone(d.ConceptIDs),
		RelNames: d.RelNames, ASub: slices.Clone(d.ASub), ARel: slices.Clone(d.ARel),
		AObj: slices.Clone(d.AObj), ByObjPerm: slices.Clone(d.ByObjPerm),
	}
}

func TestNewFlatStoreRejectsHostileColumns(t *testing.T) {
	s := scrambled(t)
	base := func() kb.FlatStoreData { return cloneColumns(s) }
	if _, err := kb.NewFlatStore(s.Ontology(), base()); err != nil {
		t.Fatalf("pristine columns rejected: %v", err)
	}
	// The fixture's shape the cases lean on: IDs 1,3,7,50,60,90; the key
	// "fever" holds {7,90}; assertion rows sorted by subject 1,3,3,3,50,50,60.
	cases := []struct {
		name   string
		mutate func(d *kb.FlatStoreData)
		want   string
	}{
		{"column lengths disagree", func(d *kb.FlatStoreData) { d.Names = edited(d.Names, func(s []string) []string { return s[1:] }) }, "ids"},
		{"ids not ascending", func(d *kb.FlatStoreData) { d.IDs[1] = d.IDs[0] }, "not strictly ascending"},
		{"empty name", func(d *kb.FlatStoreData) {
			d.Names = edited(d.Names, func(s []string) []string { s[2] = ""; return s })
		}, "empty name"},
		{"unknown concept", func(d *kb.FlatStoreData) {
			d.Concepts = edited(d.Concepts, func(s []string) []string { s[0] = "Gene"; return s })
		}, "unknown concept"},
		{"lexicon keys not ascending", func(d *kb.FlatStoreData) {
			d.LexKeys = edited(d.LexKeys, func(s []string) []string { s[1] = s[0]; return s })
		}, "keys not strictly ascending"},
		{"lexicon offsets short", func(d *kb.FlatStoreData) { d.LexOff = d.LexOff[:len(d.LexOff)-1] }, "offsets have length"},
		{"lexicon offsets decrease", func(d *kb.FlatStoreData) { d.LexOff[1] = d.LexOff[2] + 1 }, "offsets decrease"},
		{"lexicon offsets past the pool", func(d *kb.FlatStoreData) { d.LexOff[len(d.LexOff)-1]++ }, "do not span"},
		{"lexicon span not ascending", func(d *kb.FlatStoreData) {
			i, _ := d.LexKeys.Search("fever")
			d.LexIDs[d.LexOff[i]], d.LexIDs[d.LexOff[i]+1] = 90, 7
		}, "ids of \"fever\" not strictly ascending"},
		{"lexicon unknown instance", func(d *kb.FlatStoreData) { d.LexIDs[0] = 1 << 40 }, "unknown instance"},
		{"by-concept offsets out of range", func(d *kb.FlatStoreData) { d.ConceptOff[1] = 100 }, "offsets decrease"},
		{"by-concept span not ascending", func(d *kb.FlatStoreData) { d.ConceptIDs[0], d.ConceptIDs[1] = d.ConceptIDs[1], d.ConceptIDs[0] }, "not strictly ascending"},
		{"by-concept unknown instance", func(d *kb.FlatStoreData) { d.ConceptIDs[len(d.ConceptIDs)-1] = 1 << 40 }, "unknown instance"},
		{"assertion columns disagree", func(d *kb.FlatStoreData) { d.AObj = d.AObj[1:] }, "columns disagree"},
		{"relationship names not ascending", func(d *kb.FlatStoreData) {
			d.RelNames = edited(d.RelNames, func(s []string) []string { s[0], s[1] = s[1], s[0]; return s })
		}, "relationship names"},
		{"relationship index out of range", func(d *kb.FlatStoreData) { d.ARel[0] = int32(d.RelNames.Len()) }, "relationship index"},
		{"unknown subject", func(d *kb.FlatStoreData) { d.ASub[0] = 2 }, "subject 2 not found"},
		{"unknown object", func(d *kb.FlatStoreData) { d.AObj[0] = 2 }, "object 2 not found"},
		{"ontology-incompatible assertion", func(d *kb.FlatStoreData) { d.ARel[0] = 1 - d.ARel[0] }, "violates ontology"},
		{"assertions not sorted", func(d *kb.FlatStoreData) {
			// Rows 4 and 5 are (50, treat, 3) and (50, treat, 60).
			d.AObj[4], d.AObj[5] = d.AObj[5], d.AObj[4]
		}, "assertions not sorted"},
		{"permutation repeats a row", func(d *kb.FlatStoreData) { d.ByObjPerm[1] = d.ByObjPerm[0] }, "permutation invalid"},
		{"permutation out of range", func(d *kb.FlatStoreData) { d.ByObjPerm[0] = int32(len(d.ASub)) }, "permutation invalid"},
		{"permutation not in object order", func(d *kb.FlatStoreData) {
			n := len(d.ByObjPerm)
			d.ByObjPerm[0], d.ByObjPerm[n-1] = d.ByObjPerm[n-1], d.ByObjPerm[0]
		}, "permutation not sorted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base()
			tc.mutate(&d)
			_, err := kb.NewFlatStore(s.Ontology(), d)
			if err == nil {
				t.Fatal("hostile columns adopted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNewFlatStoreFindsEveryIDExactly: an instance id the lexicon, the
// by-concept index or an assertion names that is not in the instance column
// is refused with the same message wherever it falls — in a gap of the
// column, below its first id, past its last, at either end of int64 — and a
// column that spans all of int64 is adopted.
func TestNewFlatStoreFindsEveryIDExactly(t *testing.T) {
	s := scrambled(t)
	narrow := func() kb.FlatStoreData { return cloneColumns(s) }
	// The fixture's ids 1,3,7,50,60,90 spread over int64 by a monotone map,
	// so every order the columns keep still holds.
	spread := map[kb.InstanceID]kb.InstanceID{1: math.MinInt64, 3: -5, 90: math.MaxInt64}
	wide := func() kb.FlatStoreData {
		d := cloneColumns(s)
		for _, col := range [][]kb.InstanceID{d.IDs, d.LexIDs, d.ConceptIDs, d.ASub, d.AObj} {
			for i, id := range col {
				if w, ok := spread[id]; ok {
					col[i] = w
				}
			}
		}
		return d
	}
	if _, err := kb.NewFlatStore(s.Ontology(), wide()); err != nil {
		t.Fatalf("a column spanning int64 is rejected: %v", err)
	}
	pool := func(what string, col func(d *kb.FlatStoreData) []kb.InstanceID) func(kb.InstanceID) func(d *kb.FlatStoreData) string {
		return func(id kb.InstanceID) func(d *kb.FlatStoreData) string {
			return func(d *kb.FlatStoreData) string {
				col(d)[0] = id
				return fmt.Sprintf("kb: flat store: %s references unknown instance %d", what, id)
			}
		}
	}
	endpoint := func(role string, col func(d *kb.FlatStoreData) []kb.InstanceID) func(kb.InstanceID) func(d *kb.FlatStoreData) string {
		return func(id kb.InstanceID) func(d *kb.FlatStoreData) string {
			return func(d *kb.FlatStoreData) string {
				col(d)[0] = id
				return fmt.Sprintf("kb: assertion %s %d not found", role, id)
			}
		}
	}
	refs := map[string]func(kb.InstanceID) func(d *kb.FlatStoreData) string{
		"lexicon":    pool("lexicon", func(d *kb.FlatStoreData) []kb.InstanceID { return d.LexIDs }),
		"by-concept": pool("by-concept", func(d *kb.FlatStoreData) []kb.InstanceID { return d.ConceptIDs }),
		"subject":    endpoint("subject", func(d *kb.FlatStoreData) []kb.InstanceID { return d.ASub }),
		"object":     endpoint("object", func(d *kb.FlatStoreData) []kb.InstanceID { return d.AObj }),
	}
	columns := []struct {
		name string
		base func() kb.FlatStoreData
		ids  []kb.InstanceID // not in the column: a gap, below, past, the ends of int64
	}{
		{"narrow", narrow, []kb.InstanceID{2, 40, 0, -1, 91, math.MinInt64, math.MaxInt64}},
		{"wide", wide, []kb.InstanceID{1, 90, -6, 0, math.MinInt64 + 1, math.MaxInt64 - 1}},
	}
	for _, c := range columns {
		for ref, hostile := range refs {
			for _, id := range c.ids {
				t.Run(fmt.Sprintf("%s/%s/%d", c.name, ref, id), func(t *testing.T) {
					d := c.base()
					want := hostile(id)(&d)
					if _, err := kb.NewFlatStore(s.Ontology(), d); err == nil || err.Error() != want {
						t.Fatalf("error %v, want %q", err, want)
					}
				})
			}
		}
	}
}

// TestViewBuildCount pins what world generation at scale depends on: the
// generators never read the store between writes, so medkb.Generate,
// medkb.BuildCorpus and core.Ingest together build the view once, whatever
// the store's size.
func TestViewBuildCount(t *testing.T) {
	builds := func(perPair, drugs int) (int, int) {
		w, med := world(t, 42, perPair, drugs)
		corp := medkb.BuildCorpus(w, med, medkb.CorpusConfig{Seed: 44})
		if _, err := core.Ingest(med.Ontology, med.Store, w.Graph, corp, match.NewExact(w.Graph), core.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		return med.Store.ViewBuilds(), med.Store.Len()
	}
	small, smallLen := builds(0, 0) // the generators' defaults: 2 per pair, 220 drugs
	large, largeLen := builds(6, 660)
	if largeLen < 2*smallLen {
		t.Fatalf("the large world has %d instances against %d; the comparison is vacuous", largeLen, smallLen)
	}
	if small != 1 || large != 1 {
		t.Errorf("the store view was built %d times at %d instances and %d times at %d; want once each",
			small, smallLen, large, largeLen)
	}
}

// edited is a string column as edit leaves a copy of its strings, packed
// anew: a column is never mutated in place.
func edited(c strtab.Column, edit func([]string) []string) strtab.Column {
	return strtab.Pack(edit(c.Strings()))
}
