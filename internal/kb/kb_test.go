package kb

import (
	"testing"

	"medrelax/internal/ontology"
)

// fixture builds a tiny MED-like KB:
//
//	amoxicillin -treat-> ind1 -hasFinding-> fever
//	amoxicillin -treat-> ind2 -hasFinding-> bronchitis
//	ibuprofen   -treat-> ind3 -hasFinding-> fever
//	ibuprofen   -cause-> risk1 -hasFinding-> renal impairment
func fixture(t *testing.T) *Store {
	t.Helper()
	o := ontology.New()
	for _, c := range []ontology.Concept{
		{Name: "Drug"}, {Name: "Indication"}, {Name: "Risk"}, {Name: "Finding"},
	} {
		if err := o.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []ontology.Relationship{
		{Name: "treat", Domain: "Drug", Range: "Indication"},
		{Name: "cause", Domain: "Drug", Range: "Risk"},
		{Name: "hasFinding", Domain: "Indication", Range: "Finding"},
		{Name: "hasFinding", Domain: "Risk", Range: "Finding"},
	} {
		if err := o.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStore(o)
	instances := []Instance{
		{ID: 1, Concept: "Drug", Name: "amoxicillin"},
		{ID: 2, Concept: "Drug", Name: "ibuprofen"},
		{ID: 3, Concept: "Indication", Name: "ind1"},
		{ID: 4, Concept: "Indication", Name: "ind2"},
		{ID: 5, Concept: "Indication", Name: "ind3"},
		{ID: 6, Concept: "Risk", Name: "risk1"},
		{ID: 7, Concept: "Finding", Name: "fever"},
		{ID: 8, Concept: "Finding", Name: "bronchitis"},
		{ID: 9, Concept: "Finding", Name: "renal impairment"},
	}
	for _, inst := range instances {
		if err := s.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
	}
	assertions := []Assertion{
		{Subject: 1, Relationship: "treat", Object: 3},
		{Subject: 1, Relationship: "treat", Object: 4},
		{Subject: 2, Relationship: "treat", Object: 5},
		{Subject: 2, Relationship: "cause", Object: 6},
		{Subject: 3, Relationship: "hasFinding", Object: 7},
		{Subject: 4, Relationship: "hasFinding", Object: 8},
		{Subject: 5, Relationship: "hasFinding", Object: 7},
		{Subject: 6, Relationship: "hasFinding", Object: 9},
	}
	for _, a := range assertions {
		if err := s.AddAssertion(a); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAddInstanceErrors(t *testing.T) {
	o := ontology.New()
	if err := o.AddConcept(ontology.Concept{Name: "Drug"}); err != nil {
		t.Fatal(err)
	}
	s := NewStore(o)
	if err := s.AddInstance(Instance{ID: 1, Concept: "Drug", Name: ""}); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := s.AddInstance(Instance{ID: 1, Concept: "Nope", Name: "x"}); err == nil {
		t.Error("unknown concept must be rejected")
	}
	if err := s.AddInstance(Instance{ID: 1, Concept: "Drug", Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInstance(Instance{ID: 1, Concept: "Drug", Name: "y"}); err == nil {
		t.Error("duplicate id must be rejected")
	}
}

func TestAddAssertionValidation(t *testing.T) {
	s := fixture(t)
	// Unknown endpoints.
	if err := s.AddAssertion(Assertion{Subject: 99, Relationship: "treat", Object: 3}); err == nil {
		t.Error("unknown subject must be rejected")
	}
	if err := s.AddAssertion(Assertion{Subject: 1, Relationship: "treat", Object: 99}); err == nil {
		t.Error("unknown object must be rejected")
	}
	// Domain/range violation: Drug -treat-> Finding is not declared.
	if err := s.AddAssertion(Assertion{Subject: 1, Relationship: "treat", Object: 7}); err == nil {
		t.Error("range violation must be rejected")
	}
	// Unknown relationship.
	if err := s.AddAssertion(Assertion{Subject: 1, Relationship: "nope", Object: 3}); err == nil {
		t.Error("unknown relationship must be rejected")
	}
}

func TestLookupName(t *testing.T) {
	s := fixture(t)
	ids := s.LookupName("  Renal   Impairment ")
	if len(ids) != 1 || ids[0] != 9 {
		t.Errorf("LookupName = %v, want [9]", ids)
	}
	if got := s.LookupName("pertussis"); len(got) != 0 {
		t.Errorf("LookupName(pertussis) = %v", got)
	}
}

func TestInstancesOf(t *testing.T) {
	s := fixture(t)
	drugs := s.InstancesOf("Drug")
	if len(drugs) != 2 || drugs[0] != 1 || drugs[1] != 2 {
		t.Errorf("InstancesOf(Drug) = %v", drugs)
	}
	if len(s.InstancesOf("Risk")) != 1 {
		t.Error("InstancesOf(Risk) wrong")
	}
	if s.Len() != 9 {
		t.Errorf("Len = %d, want 9", s.Len())
	}
}

func TestSubjectsObjects(t *testing.T) {
	s := fixture(t)
	// Which indications have finding fever (7)?
	subs := s.Subjects("hasFinding", 7)
	if len(subs) != 2 || subs[0] != 3 || subs[1] != 5 {
		t.Errorf("Subjects(hasFinding, fever) = %v", subs)
	}
	// Objects of amoxicillin's treat.
	objs := s.Objects("treat", 1)
	if len(objs) != 2 || objs[0] != 3 || objs[1] != 4 {
		t.Errorf("Objects(treat, amoxicillin) = %v", objs)
	}
	// Relationship filter applies.
	if len(s.Subjects("cause", 7)) != 0 {
		t.Error("cause has no edge into fever")
	}
}

func TestPathQuery(t *testing.T) {
	s := fixture(t)
	// Which drugs treat fever: Drug -treat-> Indication -hasFinding-> fever.
	drugs := s.PathQuery([]string{"treat", "hasFinding"}, 7)
	if len(drugs) != 2 || drugs[0] != 1 || drugs[1] != 2 {
		t.Errorf("drugs treating fever = %v, want [1 2]", drugs)
	}
	// Which drugs cause renal impairment.
	drugs = s.PathQuery([]string{"cause", "hasFinding"}, 9)
	if len(drugs) != 1 || drugs[0] != 2 {
		t.Errorf("drugs causing renal impairment = %v, want [2]", drugs)
	}
	// No drug causes fever.
	if got := s.PathQuery([]string{"cause", "hasFinding"}, 7); len(got) != 0 {
		t.Errorf("drugs causing fever = %v, want none", got)
	}
	// Empty chain returns the terminal itself.
	if got := s.PathQuery(nil, 7); len(got) != 1 || got[0] != 7 {
		t.Errorf("empty chain = %v", got)
	}
}

func TestAllInstancesSorted(t *testing.T) {
	s := fixture(t)
	all := s.AllInstances()
	if len(all) != 9 {
		t.Fatalf("AllInstances len = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("AllInstances not sorted")
		}
	}
}

func TestLexiconKeys(t *testing.T) {
	s := fixture(t)
	keys := s.LexiconKeys()
	if len(keys) != 9 {
		t.Errorf("LexiconKeys len = %d, want 9", len(keys))
	}
	ids := s.IDsForLexiconKey("fever")
	if len(ids) != 1 || ids[0] != 7 {
		t.Errorf("IDsForLexiconKey(fever) = %v", ids)
	}
}
