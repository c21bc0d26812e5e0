package core

import (
	"math"
	"testing"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

func TestFrequencyPropagation(t *testing.T) {
	g := testEKS(t)
	ft, err := BuildFrequencyTable(g, testCorpus(), FrequencyOptions{UseTFIDF: false})
	if err != nil {
		t.Fatal(err)
	}
	// Direct mentions under the Indication label:
	//   bronchitis 2, pertussis 1, pain in throat 1, sore throat(syn of 4) 1,
	//   fever 3 (2 amoxi? check: "Fever may be treated." =1 in amoxi; ibu has
	//   "fever" 2 + "psychogenic fever" 1), headache 2 (ibu), frequent headache 1,
	//   craniofacial pain 1.
	// Propagated:
	//   frequent headache (6) = 1
	//   headache (5) = 2 + 1 = 3
	//   craniofacial pain (3) = 1 + 3 = 4
	//   pain in throat (4) = 1 + 1 = 2 (name + synonym)
	//   pain of head and neck region (2) = 0 + 4 + 2 = 6
	//   psychogenic fever (8) = 1
	//   fever (7) = 3 + 1 = 4
	//   bronchitis (10) = 2, pertussis (11) = 1, respiratory disorder (9) = 3
	//   root (1) = 0 + 6 + 4 + 3 = 13
	want := map[int64]float64{
		6: 1, 5: 3, 3: 4, 4: 2, 2: 6, 8: 1, 7: 4, 10: 2, 11: 1, 9: 3, 1: 13,
	}
	for id, w := range want {
		if got := ft.Raw(eks.ConceptID(id), ctxIndication); got != w {
			t.Errorf("Raw(%d, Indication) = %v, want %v", id, got, w)
		}
	}
	// Risk label: headache 2 (amoxi), fever 1 (ibu).
	if got := ft.Raw(5, ctxRisk); got != 2 {
		t.Errorf("Raw(headache, Risk) = %v, want 2", got)
	}
	if got := ft.Raw(7, ctxRisk); got != 1 {
		t.Errorf("Raw(fever, Risk) = %v, want 1", got)
	}
	// craniofacial pain inherits headache's risk mentions.
	if got := ft.Raw(3, ctxRisk); got != 2 {
		t.Errorf("Raw(craniofacial pain, Risk) = %v, want 2", got)
	}
	// Aggregate includes the unlabeled general section (headache+1, fever+1).
	aggHeadache := ft.RawAggregate(5)
	if aggHeadache != 3+2+1 {
		t.Errorf("RawAggregate(headache) = %v, want 6", aggHeadache)
	}
}

func TestNormalizedForContext(t *testing.T) {
	o := testOntology(t)
	g := testEKS(t)
	ft, err := BuildFrequencyTable(g, testCorpus(), FrequencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctxInd := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	// Root normalizes to 1 under any context.
	if got := ft.NormalizedForContext(1, ctxInd, o); math.Abs(got-1) > 1e-12 {
		t.Errorf("root normalized = %v, want 1", got)
	}
	// A mentioned concept is in (0, 1).
	f := ft.NormalizedForContext(5, ctxInd, o)
	if f <= 0 || f >= 1 {
		t.Errorf("normalized(headache) = %v, want in (0,1)", f)
	}
	// Never-mentioned concept still positive thanks to smoothing.
	f = ft.NormalizedForContext(2, nil, o)
	if f <= 0 {
		t.Errorf("smoothed frequency must stay positive, got %v", f)
	}
	// Nil context aggregates labels and differs from the Indication-only view
	// for a concept with Risk mentions.
	ind := ft.NormalizedForContext(5, ctxInd, o)
	all := ft.NormalizedForContext(5, nil, o)
	if ind == all {
		t.Error("context must change the frequency of headache")
	}
}

func TestExample3SubcontextAggregation(t *testing.T) {
	// Corpus labels at Risk-subconcept granularity must aggregate under the
	// broader Risk context (the paper's Example 3).
	o := testOntology(t)
	g := testEKS(t)
	docs := testCorpus().Documents()
	// Relabel the risk sections with subconcept contexts.
	docs[0].Sections[1].Label = "AdverseEffect-hasFinding-Finding"
	docs[1].Sections[1].Label = "BlackBoxWarning-hasFinding-Finding"
	ft, err := BuildFrequencyTable(g, corpus.New(docs), FrequencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctxRiskQ := &ontology.Context{Domain: "Risk", Relationship: "hasFinding", Range: "Finding"}
	// headache appears under AdverseEffect (2 mentions); fever under
	// BlackBoxWarning (1). The Risk-context query must see both.
	fHeadache := ft.NormalizedForContext(5, ctxRiskQ, o)
	fPertussis := ft.NormalizedForContext(11, ctxRiskQ, o)
	if fHeadache <= fPertussis {
		t.Errorf("headache (%v) must outweigh pertussis (%v) under aggregated Risk context", fHeadache, fPertussis)
	}
	// IC ordering is the inverse of frequency.
	if ft.IC(5, ctxRiskQ, o) >= ft.IC(11, ctxRiskQ, o) {
		t.Error("IC(headache) must be below IC(pertussis) under Risk context")
	}
}

func TestICProperties(t *testing.T) {
	o := testOntology(t)
	g := testEKS(t)
	ft, err := BuildFrequencyTable(g, testCorpus(), FrequencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Root IC is 0.
	if got := ft.IC(1, nil, o); got != 0 {
		t.Errorf("IC(root) = %v, want 0", got)
	}
	// IC is monotone along subsumption: a descendant is at least as
	// informative as its ancestor (frequency only accumulates upward).
	pairs := [][2]int64{{6, 5}, {5, 3}, {3, 2}, {2, 1}, {8, 7}, {10, 9}, {11, 9}, {9, 1}, {7, 1}, {4, 2}}
	for _, p := range pairs {
		icChild := ft.IC(eks.ConceptID(p[0]), nil, o)
		icParent := ft.IC(eks.ConceptID(p[1]), nil, o)
		if icChild < icParent {
			t.Errorf("IC(%d)=%v < IC(parent %d)=%v violates monotonicity", p[0], icChild, p[1], icParent)
		}
	}
	// IC is finite everywhere.
	for _, id := range g.ConceptIDs() {
		ic := ft.IC(id, nil, o)
		if math.IsInf(ic, 0) || math.IsNaN(ic) || ic < 0 {
			t.Errorf("IC(%d) = %v not finite/nonnegative", id, ic)
		}
	}
}

func TestTFIDFChangesWeights(t *testing.T) {
	g := testEKS(t)
	c := testCorpus()
	plain, err := BuildFrequencyTable(g, c, FrequencyOptions{UseTFIDF: false})
	if err != nil {
		t.Fatal(err)
	}
	tfidf, err := BuildFrequencyTable(g, c, FrequencyOptions{UseTFIDF: true})
	if err != nil {
		t.Fatal(err)
	}
	// bronchitis appears only in one document; idf boosts it relative to the
	// plain count more than fever (present in all three documents).
	ratioBronchitis := tfidf.RawAggregate(10) / plain.RawAggregate(10)
	ratioFever := tfidf.RawAggregate(7) / plain.RawAggregate(7)
	if ratioBronchitis <= ratioFever {
		t.Errorf("idf must boost rare bronchitis (%v) over ubiquitous fever (%v)", ratioBronchitis, ratioFever)
	}
}

func TestFrequencyTableErrors(t *testing.T) {
	// No root: building must fail.
	g := eks.New()
	if err := g.AddConcept(eks.Concept{ID: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFrequencyTable(g, testCorpus(), FrequencyOptions{}); err == nil {
		t.Error("missing root must fail")
	}
}

func TestLabelsCount(t *testing.T) {
	g := testEKS(t)
	ft, err := BuildFrequencyTable(g, testCorpus(), FrequencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Indication, Risk, and the general "" label.
	if got := ft.Labels(); got != 3 {
		t.Errorf("Labels = %d, want 3", got)
	}
}

// TestNormalizedForContextSumsLabelAscending pins the float sum of a
// context that matches several labels: with non-integer frequencies the
// order of the additions shows in the last bits, so the sum runs in
// ascending label order on every call and on every table over the same
// spans.
func TestNormalizedForContextSumsLabelAscending(t *testing.T) {
	o := testOntology(t)
	if err := o.AddRelationship(ontology.Relationship{Name: "cause", Domain: "Drug", Range: "Finding"}); err != nil {
		t.Fatal(err)
	}
	g := testEKS(t)
	root, _ := g.Root()
	const fever = eks.ConceptID(7)
	// Four labels subsumed by Drug-cause-Risk, listed out of order.
	direct := map[string]map[eks.ConceptID]float64{
		"Drug-cause-Risk":             {fever: 0.6},
		"Drug-cause-ContraIndication": {fever: 0.3},
		"Drug-cause-AdverseEffect":    {fever: 0.1},
		"Drug-cause-BlackBoxWarning":  {fever: 0.2},
		"Drug-cause-Finding":          {fever: 5},
	}
	ft, err := BuildFrequencyTableFromDirectCounts(g, direct, FrequencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &ontology.Context{Domain: "Drug", Relationship: "cause", Range: "Risk"}

	labels := []string{"Drug-cause-AdverseEffect", "Drug-cause-BlackBoxWarning", "Drug-cause-ContraIndication", "Drug-cause-Risk"}
	f, rootF, descending := 0.0, 0.0, 0.0
	for i, label := range labels {
		f += ft.Raw(fever, label)
		rootF += ft.Raw(root, label)
		descending += ft.Raw(fever, labels[len(labels)-1-i])
	}
	if f == descending {
		t.Fatalf("the fixture's sum %v does not depend on the order of its additions", f)
	}
	smoothing := ft.FlatData().Smoothing
	want := (f + smoothing) / (rootF + smoothing)

	adopted, err := OpenFlatFrequencyTable(ft.FlatData())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFrequencyTable(ft.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		for name, table := range map[string]*FrequencyTable{"built": ft, "adopted": adopted, "restored": restored} {
			if got := table.NormalizedForContext(fever, ctx, o); got != want {
				t.Fatalf("call %d on the %s table: %v, want the label-ascending sum %v", i, name, got, want)
			}
		}
	}
}
