// Custom EKS: shows the library's composable API on a hand-built world —
// your own domain ontology, knowledge base, external knowledge source and
// document corpus, without the synthetic generators. This is the workflow a
// downstream adopter follows to point the relaxation method at their own
// data, and it rebuilds the paper's Figures 1 and 3 in miniature.
package main

import (
	"fmt"
	"log"

	"medrelax/internal/core"
	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/engine"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
)

func main() {
	fmt.Println("== custom external knowledge source ==")

	// 1. Domain ontology (TBox) — the Figure 1 fragment.
	onto := ontology.New()
	for _, c := range []ontology.Concept{
		{Name: "Drug"}, {Name: "Indication"}, {Name: "Risk"}, {Name: "Finding"},
		{Name: "BlackBoxWarning", Parent: "Risk"},
		{Name: "AdverseEffect", Parent: "Risk"},
		{Name: "ContraIndication", Parent: "Risk"},
	} {
		must(onto.AddConcept(c))
	}
	for _, r := range []ontology.Relationship{
		{Name: "treat", Domain: "Drug", Range: "Indication"},
		{Name: "cause", Domain: "Drug", Range: "Risk"},
		{Name: "hasFinding", Domain: "Indication", Range: "Finding"},
		{Name: "hasFinding", Domain: "Risk", Range: "Finding"},
	} {
		must(onto.AddRelationship(r))
	}

	// 2. Instances (ABox) — a small Figure 3 style KB.
	store := kb.NewStore(onto)
	for _, inst := range []kb.Instance{
		{ID: 1, Concept: "Drug", Name: "amoxicillin"},
		{ID: 2, Concept: "Drug", Name: "lisinopril"},
		{ID: 10, Concept: "Indication", Name: "amoxicillin for bronchitis"},
		{ID: 11, Concept: "Indication", Name: "lisinopril for kidney disease"},
		{ID: 20, Concept: "Finding", Name: "bronchitis"},
		{ID: 21, Concept: "Finding", Name: "kidney disease"},
		{ID: 22, Concept: "Finding", Name: "fever"},
	} {
		must(store.AddInstance(inst))
	}
	for _, a := range []kb.Assertion{
		{Subject: 1, Relationship: "treat", Object: 10},
		{Subject: 10, Relationship: "hasFinding", Object: 20},
		{Subject: 2, Relationship: "treat", Object: 11},
		{Subject: 11, Relationship: "hasFinding", Object: 21},
	} {
		must(store.AddAssertion(a))
	}

	// 3. External knowledge source — a SNOMED-like fragment with the
	// pertussis/bronchitis neighbourhood from the paper's introduction.
	g := eks.New()
	for _, c := range []eks.Concept{
		{ID: 1, Name: "clinical finding"},
		{ID: 2, Name: "respiratory disorder"},
		{ID: 3, Name: "bronchitis"},
		{ID: 4, Name: "pertussis", Synonyms: []string{"whooping cough"}},
		{ID: 5, Name: "kidney disease", Synonyms: []string{"nephropathy"}},
		{ID: 6, Name: "pyelectasia"},
		{ID: 7, Name: "fever", Synonyms: []string{"pyrexia"}},
	} {
		must(g.AddConcept(c))
	}
	for _, e := range [][2]eks.ConceptID{{2, 1}, {3, 2}, {4, 2}, {5, 1}, {6, 5}, {7, 1}} {
		must(g.AddSubsumption(e[0], e[1]))
	}
	must(g.SetRoot(1))

	// 4. The document corpus the KB was curated from, with context-labeled
	// sections.
	corp := corpus.New([]corpus.Document{{
		ID: "monographs",
		Sections: []corpus.Section{
			{Label: "Indication-hasFinding-Finding",
				Text: "amoxicillin treats bronchitis. bronchitis and whooping cough respond. lisinopril protects against kidney disease. fever is treated symptomatically."},
			{Label: "Risk-hasFinding-Finding",
				Text: "rare reports of fever under treatment."},
		},
	}})

	// 5. Offline phase: Algorithm 1.
	mapper := match.NewEdit(g, 0) // exact + typo tolerance
	ing, err := core.Ingest(onto, store, g, corp, mapper, core.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingestion: %d contexts, %d mappings, %d flagged concepts, %d shortcut edges\n\n",
		len(ing.Contexts), ing.MappingCount(), ing.FlaggedCount(), ing.ShortcutsAdded)

	// 6. Online phase: Algorithm 2 — "what drugs treat pertussis" has no
	// direct KB answer; relaxation reaches bronchitis (the paper's
	// introduction example), and "pyelectasia" reaches kidney disease.
	// Hand the ingestion to the engine layer: it freezes the graph and
	// assembles the relaxer, same as every serving entry point.
	snap := engine.New(ing, engine.Config{Relax: core.RelaxOptions{Radius: 3, DynamicRadius: true}})
	relaxer := snap.Relaxer()
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}

	for _, term := range []string{"pertussis", "pyelectasia", "pertusis" /* typo */} {
		results, err := relaxer.RelaxTerm(term, ctx, 0)
		if err != nil {
			fmt.Printf("%q: %v\n", term, err)
			continue
		}
		fmt.Printf("relaxations of %q:\n", term)
		for _, r := range results {
			c, _ := g.Concept(r.Concept)
			fmt.Printf("  %-16s score=%.4f -> drugs: %v\n", c.Name, r.Score, drugsFor(store, r.Instances))
		}
	}
}

func drugsFor(store *kb.Store, findings []kb.InstanceID) []string {
	var out []string
	for _, f := range findings {
		for _, d := range store.PathQuery([]string{"treat", "hasFinding"}, f) {
			inst, _ := store.Instance(d)
			out = append(out, inst.Name)
		}
	}
	return out
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
