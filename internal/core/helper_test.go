package core

import (
	"testing"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/ontology"
)

// Shared test world, loosely modeled on the paper's Figures 1, 3 and 4.
//
// External knowledge source (IDs in parentheses):
//
//	(1) clinical finding  [root]
//	  (2) pain of head and neck region
//	    (3) craniofacial pain
//	      (5) headache
//	        (6) frequent headache
//	    (4) pain in throat
//	  (7) fever
//	    (8) psychogenic fever
//	  (9) respiratory disorder
//	    (10) bronchitis
//	    (11) pertussis
//
// Domain ontology: Figure 1 (Drug, Indication, Risk+3 children, Finding).
// KB instances of Finding: headache, pain in throat, fever, bronchitis.
func testOntology(t *testing.T) *ontology.Ontology {
	t.Helper()
	o := ontology.New()
	for _, c := range []ontology.Concept{
		{Name: "Drug"}, {Name: "Indication"}, {Name: "Risk"}, {Name: "Finding"},
		{Name: "BlackBoxWarning", Parent: "Risk"},
		{Name: "AdverseEffect", Parent: "Risk"},
		{Name: "ContraIndication", Parent: "Risk"},
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
	return o
}

func testEKS(t *testing.T) *eks.Graph {
	t.Helper()
	g := eks.New()
	concepts := []eks.Concept{
		{ID: 1, Name: "clinical finding"},
		{ID: 2, Name: "pain of head and neck region"},
		{ID: 3, Name: "craniofacial pain"},
		{ID: 4, Name: "pain in throat", Synonyms: []string{"sore throat"}},
		{ID: 5, Name: "headache"},
		{ID: 6, Name: "frequent headache"},
		{ID: 7, Name: "fever", Synonyms: []string{"pyrexia"}},
		{ID: 8, Name: "psychogenic fever"},
		{ID: 9, Name: "respiratory disorder"},
		{ID: 10, Name: "bronchitis"},
		{ID: 11, Name: "pertussis", Synonyms: []string{"whooping cough"}},
	}
	for _, c := range concepts {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]eks.ConceptID{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {6, 5},
		{7, 1}, {8, 7}, {9, 1}, {10, 9}, {11, 9},
	} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		t.Fatal(err)
	}
	return g
}

func testStore(t *testing.T, o *ontology.Ontology) *kb.Store {
	t.Helper()
	s := kb.NewStore(o)
	instances := []kb.Instance{
		{ID: 100, Concept: "Drug", Name: "amoxicillin"},
		{ID: 101, Concept: "Drug", Name: "ibuprofen"},
		{ID: 110, Concept: "Indication", Name: "indication of amoxicillin"},
		{ID: 111, Concept: "Indication", Name: "indication of ibuprofen"},
		{ID: 120, Concept: "AdverseEffect", Name: "adverse effect of ibuprofen"},
		{ID: 130, Concept: "Finding", Name: "headache"},
		{ID: 131, Concept: "Finding", Name: "pain in throat"},
		{ID: 132, Concept: "Finding", Name: "fever"},
		{ID: 133, Concept: "Finding", Name: "bronchitis"},
	}
	for _, inst := range instances {
		if err := s.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
	}
	assertions := []kb.Assertion{
		{Subject: 100, Relationship: "treat", Object: 110},
		{Subject: 101, Relationship: "treat", Object: 111},
		{Subject: 101, Relationship: "cause", Object: 120},
		{Subject: 110, Relationship: "hasFinding", Object: 133},
		{Subject: 111, Relationship: "hasFinding", Object: 130},
		{Subject: 111, Relationship: "hasFinding", Object: 132},
		{Subject: 120, Relationship: "hasFinding", Object: 130},
	}
	for _, a := range assertions {
		if err := s.AddAssertion(a); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

const (
	ctxIndication = "Indication-hasFinding-Finding"
	ctxRisk       = "Risk-hasFinding-Finding"
)

func testCorpus() *corpus.Corpus {
	docs := []corpus.Document{
		{
			ID: "amoxicillin", Title: "Amoxicillin",
			Sections: []corpus.Section{
				{Label: ctxIndication, Text: "Indicated for bronchitis. Bronchitis and pertussis respond. " +
					"Also for pain in throat and sore throat infections. Fever may be treated."},
				{Label: ctxRisk, Text: "May cause headache. Headache reported rarely."},
			},
		},
		{
			ID: "ibuprofen", Title: "Ibuprofen",
			Sections: []corpus.Section{
				{Label: ctxIndication, Text: "Treats headache, frequent headache, craniofacial pain and fever. " +
					"Headache relief is rapid. Fever reduction within hours. Psychogenic fever may respond."},
				{Label: ctxRisk, Text: "Risk of fever in rare cases."},
			},
		},
		{
			ID: "general", Title: "Clinical overview",
			Sections: []corpus.Section{
				{Label: "", Text: "Clinical finding taxonomy overview mentioning headache and fever."},
			},
		},
	}
	return corpus.New(docs)
}

// ingestWorld runs a full ingestion over the shared world with the exact
// mapper and default options.
func ingestWorld(t *testing.T, opts IngestOptions) *Ingestion {
	t.Helper()
	o := testOntology(t)
	g := testEKS(t)
	store := testStore(t, o)
	ing, err := Ingest(o, store, g, testCorpus(), exactMapper{g}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

// exactMapper avoids importing match in fixtures (match is tested on its
// own); ingestion only needs the Mapper contract.
type exactMapper struct{ g *eks.Graph }

func (m exactMapper) Name() string { return "EXACT" }

func (m exactMapper) Map(name string) (eks.ConceptID, bool) {
	ids := m.g.LookupName(name)
	if len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}

// passThroughNodes reads the walk skeleton's rule off a graph's columns by
// brute force: an unreported node whose out-neighbours, two at a time, are
// joined by an arc each way, and whose every in-arc comes from an
// out-neighbour.
func passThroughNodes(fg eks.FlatGraphData, report []int32) []bool {
	n := len(fg.IDs)
	out := make([]map[int32]bool, n)
	in := make([]map[int32]bool, n)
	for i := range out {
		out[i], in[i] = map[int32]bool{}, map[int32]bool{}
	}
	for i := 0; i < n; i++ {
		for _, to := range [][]int32{fg.UpTo[fg.UpOff[i]:fg.UpOff[i+1]], fg.DownTo[fg.DownOff[i]:fg.DownOff[i+1]]} {
			for _, nb := range to {
				out[i][nb] = true
				in[nb][int32(i)] = true
			}
		}
	}
	pass := make([]bool, n)
	for x := range pass {
		if report[x] >= 0 {
			continue
		}
		pass[x] = true
		for a := range out[x] {
			for b := range out[x] {
				if a != b && !out[a][b] {
					pass[x] = false
				}
			}
			if !pass[x] {
				break
			}
		}
		for p := range in[x] {
			if !out[x][p] {
				pass[x] = false
			}
		}
	}
	return pass
}
