package ontology

import "testing"

// figure1 builds the Figure 1 ontology fragment from the paper.
func figure1(t *testing.T) *Ontology {
	t.Helper()
	o := New()
	concepts := []Concept{
		{Name: "Drug"},
		{Name: "Indication"},
		{Name: "Risk"},
		{Name: "Finding"},
		{Name: "BlackBoxWarning", Parent: "Risk"},
		{Name: "AdverseEffect", Parent: "Risk"},
		{Name: "ContraIndication", Parent: "Risk"},
	}
	for _, c := range concepts {
		if err := o.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	rels := []Relationship{
		{Name: "treat", Domain: "Drug", Range: "Indication"},
		{Name: "cause", Domain: "Drug", Range: "Risk"},
		{Name: "hasFinding", Domain: "Indication", Range: "Finding"},
		{Name: "hasFinding", Domain: "Risk", Range: "Finding"},
	}
	for _, r := range rels {
		if err := o.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func TestAddConceptErrors(t *testing.T) {
	o := New()
	if err := o.AddConcept(Concept{Name: ""}); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := o.AddConcept(Concept{Name: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddConcept(Concept{Name: "A"}); err == nil {
		t.Error("duplicate must be rejected")
	}
	if err := o.AddConcept(Concept{Name: "B", Parent: "missing"}); err == nil {
		t.Error("unknown parent must be rejected")
	}
}

func TestAddRelationshipErrors(t *testing.T) {
	o := New()
	if err := o.AddConcept(Concept{Name: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddRelationship(Relationship{Name: "", Domain: "A", Range: "A"}); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := o.AddRelationship(Relationship{Name: "r", Domain: "X", Range: "A"}); err == nil {
		t.Error("unknown domain must be rejected")
	}
	if err := o.AddRelationship(Relationship{Name: "r", Domain: "A", Range: "X"}); err == nil {
		t.Error("unknown range must be rejected")
	}
	if err := o.AddRelationship(Relationship{Name: "r", Domain: "A", Range: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddRelationship(Relationship{Name: "r", Domain: "A", Range: "A"}); err == nil {
		t.Error("duplicate relationship must be rejected")
	}
}

func TestContexts(t *testing.T) {
	o := figure1(t)
	ctxs := o.Contexts()
	if len(ctxs) != 4 {
		t.Fatalf("got %d contexts, want 4: %v", len(ctxs), ctxs)
	}
	want := map[string]bool{
		"Drug-treat-Indication":         true,
		"Drug-cause-Risk":               true,
		"Indication-hasFinding-Finding": true,
		"Risk-hasFinding-Finding":       true,
	}
	for _, c := range ctxs {
		if !want[c.String()] {
			t.Errorf("unexpected context %s", c)
		}
	}
}

func TestHierarchy(t *testing.T) {
	o := figure1(t)
	if !o.IsSubConceptOf("AdverseEffect", "Risk") {
		t.Error("AdverseEffect must be subconcept of Risk")
	}
	if !o.IsSubConceptOf("Risk", "Risk") {
		t.Error("a concept is a subconcept of itself")
	}
	if o.IsSubConceptOf("Risk", "AdverseEffect") {
		t.Error("subsumption must not be inverted")
	}
	if o.IsSubConceptOf("nope", "Risk") {
		t.Error("unknown concept is not a subconcept")
	}
	desc := o.Descendants("Risk")
	if len(desc) != 3 {
		t.Errorf("Descendants(Risk) = %v", desc)
	}
	if len(o.Descendants("Drug")) != 0 {
		t.Error("Drug has no descendants")
	}
}

func TestParseContext(t *testing.T) {
	c, err := ParseContext("Indication-hasFinding-Finding")
	if err != nil {
		t.Fatal(err)
	}
	if c.Domain != "Indication" || c.Relationship != "hasFinding" || c.Range != "Finding" {
		t.Errorf("ParseContext = %+v", c)
	}
	for _, bad := range []string{"", "a-b", "a-b-c-d", "-b-c", "a--c", "a-b-"} {
		if _, err := ParseContext(bad); err == nil {
			t.Errorf("ParseContext(%q) must fail", bad)
		}
	}
}

func TestValidateAndCounts(t *testing.T) {
	o := figure1(t)
	if err := o.Validate(); err != nil {
		t.Errorf("valid ontology rejected: %v", err)
	}
	if o.ConceptCount() != 7 {
		t.Errorf("ConceptCount = %d", o.ConceptCount())
	}
	if o.RelationshipCount() != 4 {
		t.Errorf("RelationshipCount = %d", o.RelationshipCount())
	}
	names := o.ConceptNames()
	if len(names) != 7 || names[0] != "AdverseEffect" {
		t.Errorf("ConceptNames = %v", names)
	}
	if _, ok := o.Concept("Drug"); !ok {
		t.Error("Concept(Drug) missing")
	}
}
