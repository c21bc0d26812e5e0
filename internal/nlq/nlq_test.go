package nlq

import (
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
)

// The test world reproduces the Section 6.2 running example: aspirin, a
// Risk/Indication structure, "pyelectasia" present only in the external
// knowledge source, and "kidney disease" as its closest KB concept.
func testWorld(t *testing.T) (*ontology.Ontology, *kb.Store, *core.Relaxer, *core.Ingestion) {
	t.Helper()
	o := ontology.New()
	for _, c := range []ontology.Concept{
		{Name: "Drug"}, {Name: "Indication"}, {Name: "Risk"}, {Name: "Finding"},
		{Name: "AdverseEffect", Parent: "Risk"},
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

	g := eks.New()
	for _, c := range []eks.Concept{
		{ID: 1, Name: "clinical finding"},
		{ID: 2, Name: "kidney disease", Synonyms: []string{"nephropathy"}},
		{ID: 3, Name: "pyelectasia"},
		{ID: 4, Name: "renal cyst"},
		{ID: 5, Name: "fever"},
	} {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]eks.ConceptID{{2, 1}, {3, 2}, {4, 2}, {5, 1}} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		t.Fatal(err)
	}

	store := kb.NewStore(o)
	for _, inst := range []kb.Instance{
		{ID: 1, Concept: "Drug", Name: "aspirin"},
		{ID: 2, Concept: "Drug", Name: "lisinopril"},
		{ID: 10, Concept: "AdverseEffect", Name: "aspirin nephrotoxicity risk"},
		{ID: 11, Concept: "Indication", Name: "lisinopril kidney indication"},
		{ID: 12, Concept: "Indication", Name: "aspirin fever indication"},
		{ID: 20, Concept: "Finding", Name: "kidney disease"},
		{ID: 21, Concept: "Finding", Name: "renal cyst"},
		{ID: 22, Concept: "Finding", Name: "fever"},
	} {
		if err := store.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []kb.Assertion{
		{Subject: 1, Relationship: "cause", Object: 10},
		{Subject: 10, Relationship: "hasFinding", Object: 20},
		{Subject: 2, Relationship: "treat", Object: 11},
		{Subject: 11, Relationship: "hasFinding", Object: 20},
		{Subject: 1, Relationship: "treat", Object: 12},
		{Subject: 12, Relationship: "hasFinding", Object: 22},
	} {
		if err := store.AddAssertion(a); err != nil {
			t.Fatal(err)
		}
	}

	corp := corpus.New([]corpus.Document{{
		ID: "d",
		Sections: []corpus.Section{
			{Label: "Risk-hasFinding-Finding", Text: "kidney disease kidney disease renal cyst"},
			{Label: "Indication-hasFinding-Finding", Text: "kidney disease fever fever"},
		},
	}})
	ing, err := core.Ingest(o, store, g, corp, match.NewExact(g), core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	relaxer := core.NewRelaxer(ing, sim, match.NewExact(g), core.RelaxOptions{Radius: 3, DynamicRadius: true})
	return o, store, relaxer, ing
}

func newSystem(t *testing.T) *System {
	t.Helper()
	o, store, relaxer, ing := testWorld(t)
	return NewSystem(o, store, relaxer, ing)
}

func TestEvidenceGeneration(t *testing.T) {
	sys := newSystem(t)
	tes := sys.Evidence.Generate("what are the risks caused by using aspirin with pyelectasia")
	spans := map[string][]Evidence{}
	for _, te := range tes {
		spans[te.Span] = te.Evidences
	}
	// "risks" is metadata for the Risk concept.
	if evs := spans["risks"]; len(evs) == 0 || evs[0].Kind != Metadata || evs[0].Concept != "Risk" {
		t.Errorf("risks evidence = %+v", evs)
	}
	// "caused by" maps to the cause relationship.
	if evs := spans["caused by"]; len(evs) == 0 || evs[0].Relationship != "cause" {
		t.Errorf("caused-by evidence = %+v", evs)
	}
	// "aspirin" is a data value of Drug.
	if evs := spans["aspirin"]; len(evs) != 1 || evs[0].Kind != DataValue || evs[0].Concept != "Drug" {
		t.Errorf("aspirin evidence = %+v", evs)
	}
	// "pyelectasia" is unknown and produces relaxed data-value evidence.
	evs := spans["pyelectasia"]
	if len(evs) == 0 {
		t.Fatal("pyelectasia produced no evidence")
	}
	foundKidney := false
	for _, ev := range evs {
		if !ev.Relaxed || ev.Kind != DataValue {
			t.Errorf("pyelectasia evidence not relaxed data-value: %+v", ev)
		}
		for _, id := range ev.Instances {
			inst, _ := sys.store.Instance(id)
			if inst.Name == "kidney disease" {
				foundKidney = true
			}
		}
	}
	if !foundKidney {
		t.Error("relaxation did not surface kidney disease")
	}
}

func TestEvidenceWithoutRelaxer(t *testing.T) {
	o, store, _, _ := testWorld(t)
	sys := NewSystem(o, store, nil, nil)
	tes := sys.Evidence.Generate("risks of pyelectasia")
	for _, te := range tes {
		if te.Span == "pyelectasia" {
			t.Errorf("without relaxation pyelectasia must yield nothing, got %+v", te)
		}
	}
}

func TestInterpretationRanking(t *testing.T) {
	sys := newSystem(t)
	tes := sys.Evidence.Generate("what are the risks caused by using aspirin with pyelectasia")
	its := sys.Interpreter.Interpret(tes)
	if len(its) == 0 {
		t.Fatal("no interpretations")
	}
	// Ranked by compactness then relaxation score.
	for i := 1; i < len(its); i++ {
		if its[i-1].Compactness > its[i].Compactness {
			t.Fatal("interpretations not sorted by compactness")
		}
		if its[i-1].Compactness == its[i].Compactness && its[i-1].RelaxScore < its[i].RelaxScore {
			t.Fatal("ties not broken by relaxation score")
		}
	}
	// Among equal-compactness interpretations, the top one must use the
	// best-scoring relaxed value (kidney disease, the most similar concept
	// to pyelectasia).
	best := its[0]
	usesKidney := false
	for _, ev := range best.Selection {
		for _, id := range ev.Instances {
			if inst, _ := sys.store.Instance(id); inst.Name == "kidney disease" {
				usesKidney = true
			}
		}
	}
	if !usesKidney {
		t.Errorf("top interpretation does not ground pyelectasia to kidney disease: %+v", best)
	}
	if best.String() == "" {
		t.Error("empty rendering")
	}
}

func TestAnswerFigure9(t *testing.T) {
	sys := newSystem(t)
	ans, err := sys.Answer("what are the risks caused by using aspirin with pyelectasia")
	if err != nil {
		t.Fatal(err)
	}
	// The answer is aspirin's adverse effect on kidney disease.
	if len(ans.Results) != 1 || ans.Results[0] != "aspirin nephrotoxicity risk" {
		t.Errorf("results = %v", ans.Results)
	}
	if ans.Query.Focus != "Risk" {
		t.Errorf("focus = %s", ans.Query.Focus)
	}
	if !strings.Contains(ans.SQL, "SELECT") || !strings.Contains(ans.SQL, "hasFinding") {
		t.Errorf("SQL = %s", ans.SQL)
	}
}

func TestAnswerDrugFocus(t *testing.T) {
	sys := newSystem(t)
	ans, err := sys.Answer("which drugs treat fever")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 1 || ans.Results[0] != "aspirin" {
		t.Errorf("results = %v", ans.Results)
	}
	if ans.Query.Focus != "Drug" {
		t.Errorf("focus = %s", ans.Query.Focus)
	}
}

func TestAnswerDrugFocusRelaxed(t *testing.T) {
	sys := newSystem(t)
	// pyelectasia is unknown; relaxation grounds it to kidney disease, and
	// lisinopril treats kidney disease.
	ans, err := sys.Answer("which drugs treat pyelectasia")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ans.Results {
		if r == "lisinopril" {
			found = true
		}
	}
	if !found {
		t.Errorf("results = %v, want lisinopril", ans.Results)
	}
}

func TestAnswerErrors(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Answer("hello beautiful world"); err == nil {
		t.Error("evidence-free query must fail")
	}
}

func TestSemanticGraphShortestPath(t *testing.T) {
	o, _, _, _ := testWorld(t)
	g := NewSemanticGraph(o)
	p := g.shortestPath("Drug", "Finding")
	if len(p) != 2 {
		t.Fatalf("Drug->Finding path = %+v, want 2 edges", p)
	}
	if p := g.shortestPath("Drug", "Drug"); len(p) != 0 {
		t.Error("self path must be empty")
	}
	// Subconcept edges connect AdverseEffect to Risk.
	p = g.shortestPath("AdverseEffect", "Risk")
	if len(p) != 1 || p[0].Relationship != "isA" {
		t.Errorf("AdverseEffect->Risk = %+v", p)
	}
}

func TestCompileUnsupported(t *testing.T) {
	o, _, _, _ := testWorld(t)
	// No metadata evidence: not compilable.
	it := Interpretation{Selection: []Evidence{{Kind: DataValue, Concept: "Finding"}}}
	if _, ok := Compile(it, o); ok {
		t.Error("metadata-free interpretation must not compile")
	}
	// No data value: not compilable.
	it = Interpretation{Selection: []Evidence{{Kind: Metadata, Concept: "Risk"}}}
	if _, ok := Compile(it, o); ok {
		t.Error("value-free interpretation must not compile")
	}
}

func TestStructuredQuerySQLRendering(t *testing.T) {
	q := StructuredQuery{
		Focus:            "Risk",
		Chain:            []string{"hasFinding"},
		Terminal:         []kb.InstanceID{20},
		DrugFilter:       []kb.InstanceID{1},
		DrugRelationship: "cause",
	}
	sql := q.SQL()
	for _, want := range []string{"SELECT", "Risk", "hasFinding", "cause", "20", "EXISTS"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q: %s", want, sql)
		}
	}
}
