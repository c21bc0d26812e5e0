package synthkb_test

import (
	"math"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/ontology"
	"medrelax/internal/synthkb"
)

func TestGenerateValidWorld(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Graph.Len() < 500 {
		t.Errorf("world too small: %d concepts", w.Graph.Len())
	}
	if len(w.Findings) < 300 {
		t.Errorf("too few findings: %d", len(w.Findings))
	}
	if len(w.Drugs) < 20 {
		t.Errorf("too few drugs: %d", len(w.Drugs))
	}
	// Every finding has attributes with a system.
	for _, id := range w.Findings {
		attr := w.Attrs[id]
		if attr.Kind != synthkb.KindFinding || attr.System == "" {
			t.Fatalf("finding %d has bad attributes %+v", id, attr)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w1, err := synthkb.Generate(synthkb.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := synthkb.Generate(synthkb.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if w1.Graph.Len() != w2.Graph.Len() || w1.Graph.EdgeCount() != w2.Graph.EdgeCount() {
		t.Fatal("same seed must reproduce the same world")
	}
	ids1, ids2 := w1.Graph.ConceptIDs(), w2.Graph.ConceptIDs()
	for i := range ids1 {
		c1, _ := w1.Graph.Concept(ids1[i])
		c2, _ := w2.Graph.Concept(ids2[i])
		if c1.Name != c2.Name {
			t.Fatalf("concept %d name differs: %q vs %q", ids1[i], c1.Name, c2.Name)
		}
	}
	// Different seeds differ (at least in latent assignment or sizes).
	w3, err := synthkb.Generate(synthkb.Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if w3.Graph.Len() == w1.Graph.Len() && w3.Graph.EdgeCount() == w1.Graph.EdgeCount() {
		same := 0
		for id, v := range w1.Latent {
			if len(w3.Latent[id]) == len(v) {
				same++
			}
		}
		if same == len(w1.Latent) {
			t.Log("worlds with different seeds look identical — suspicious but not fatal")
		}
	}
}

func TestGenerateCuratedAndAntonyms(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pneumonia", "headache", "kidney disease", "fever", "pyelectasia"} {
		if findings(w, name) == nil {
			t.Errorf("curated finding %q missing", name)
		}
	}
	if p := findings(w, "pneumonia"); len(p) != 1 || w.Attrs[p[0]].System != "respiratory" {
		t.Errorf("pneumonia: findings %v, want one of system respiratory", p)
	}
	// Synonym lookup works for registered synonyms.
	if ids := w.Graph.LookupName("whooping cough"); len(ids) == 0 {
		t.Error("registered synonym 'whooping cough' not indexed")
	}
	// Antonym pairs are mutual and have opposite polarity.
	if len(w.AntonymOf) == 0 {
		t.Fatal("no antonym pairs planted")
	}
	for a, b := range w.AntonymOf {
		if w.AntonymOf[b] != a {
			t.Errorf("antonym link not mutual: %d <-> %d", a, b)
		}
		if w.Attrs[a].Polarity*w.Attrs[b].Polarity != -1 {
			t.Errorf("antonyms %d,%d must have opposite polarity", a, b)
		}
		// Antonyms are close in the graph (shared parent => distance 2).
		if d, ok := w.Graph.SemanticDistance(a, b); !ok || d > 2 {
			t.Errorf("antonyms %d,%d at distance %d, want <= 2", a, b, d)
		}
	}
}

func TestGenerateLatentVariants(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Latent) == 0 {
		t.Fatal("no latent variants generated")
	}
	// Latent variants must not be resolvable by exact lookup.
	for id, variants := range w.Latent {
		for _, v := range variants {
			for _, hit := range w.Graph.LookupName(v) {
				if hit == id {
					t.Errorf("latent variant %q of %d is exact-resolvable", v, id)
				}
			}
		}
	}
}

func TestGenerateScalesUp(t *testing.T) {
	small, err := synthkb.Generate(synthkb.Config{Seed: 5, ConditionsPerPair: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := synthkb.Generate(synthkb.Config{Seed: 5, ConditionsPerPair: 6})
	if err != nil {
		t.Fatal(err)
	}
	if big.Graph.Len() <= small.Graph.Len() {
		t.Errorf("ConditionsPerPair must scale the world: %d vs %d", big.Graph.Len(), small.Graph.Len())
	}
}

func TestGenerateMultiParent(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, id := range w.Graph.ConceptIDs() {
		if len(w.Graph.UpEdges(id)) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("world has no multi-parent concepts; SNOMED-like DAGs need them")
	}
}

// TestFigure4Frequencies reproduces the numbers printed in the paper's
// Figure 4: the propagated frequency of "pain of head and neck region" is
// 19164 (= 18878 + 283 + 3) in the Indication context and 1656 in the Risk
// context, and "craniofacial pain" equals headache's 18878.
func TestFigure4Frequencies(t *testing.T) {
	g, direct := synthkb.Figure4Fixture()
	ft, err := core.BuildFrequencyTableFromDirectCounts(g, direct, core.FrequencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(id eks.ConceptID, label string, want float64) {
		t.Helper()
		if got := ft.Raw(id, label); got != want {
			c, _ := g.Concept(id)
			t.Errorf("freq(%s, %s) = %v, want %v", c.Name, label, got, want)
		}
	}
	check(synthkb.Fig4Headache, synthkb.Fig4CtxIndication, 18878)
	check(synthkb.Fig4CraniofacialPain, synthkb.Fig4CtxIndication, 18878)
	check(synthkb.Fig4PainInThroat, synthkb.Fig4CtxIndication, 283)
	check(synthkb.Fig4PainHeadNeck, synthkb.Fig4CtxIndication, 19164)
	check(synthkb.Fig4PainHeadNeck, synthkb.Fig4CtxRisk, 1656)
	// Root normalizes to 1 in each context.
	o := ontology.New()
	if got := ft.NormalizedForContext(synthkb.Fig4Root, nil, o); math.Abs(got-1) > 1e-12 {
		t.Errorf("root normalized = %v", got)
	}
}

// TestFigure5Shortcut reproduces Figure 5: after customization the
// 3-hop-distant "chronic kidney disease stage 1 due to hypertension"
// becomes a one-hop neighbour of "kidney disease" while the semantic
// distance stays 3.
func TestFigure5Shortcut(t *testing.T) {
	g := synthkb.Figure5Fixture()
	if d, ok := g.SemanticDistance(synthkb.Fig5CKDStage1HT, synthkb.Fig5Kidney); !ok || d != 3 {
		t.Fatalf("pre-customization distance = %d, want 3", d)
	}
	// kidney disease is the concept with a KB instance: simulate the
	// customization rule for the pair.
	if err := g.AddShortcutEdge(synthkb.Fig5CKDStage1HT, synthkb.Fig5Kidney, 3); err != nil {
		t.Fatal(err)
	}
	oneHop := false
	for _, nb := range g.NeighborsWithinHops(synthkb.Fig5Kidney, 1) {
		if nb.ID == synthkb.Fig5CKDStage1HT {
			oneHop = true
		}
	}
	if !oneHop {
		t.Error("shortcut must make the pair one-hop neighbours")
	}
	if d, _ := g.SemanticDistance(synthkb.Fig5CKDStage1HT, synthkb.Fig5Kidney); d != 3 {
		t.Errorf("post-customization semantic distance = %d, want 3", d)
	}
}

// TestFigure6PathPenalties reproduces Figure 6 / Example 4: the path from
// pneumonia to LRTI has 4 hops with 3 leading generalizations and weight
// 0.9^6; the reverse path has 1 leading generalization and weight 0.9^3.
func TestFigure6PathPenalties(t *testing.T) {
	g := synthkb.Figure6Fixture()
	w := core.DefaultPathWeights()

	p1, ok := g.ShortestSemanticPath(synthkb.Fig6Pneumonia, synthkb.Fig6LRTI)
	if !ok || p1.Len() != 4 {
		t.Fatalf("pneumonia->LRTI path = %+v, want 4 hops", p1)
	}
	if p1.Generalizations() != 3 {
		t.Fatalf("pneumonia->LRTI generalizations = %d, want 3", p1.Generalizations())
	}
	if got, want := w.PathWeight(p1), math.Pow(0.9, 6); math.Abs(got-want) > 1e-12 {
		t.Errorf("path1 weight = %v, want %v", got, want)
	}

	p2, ok := g.ShortestSemanticPath(synthkb.Fig6LRTI, synthkb.Fig6Pneumonia)
	if !ok || p2.Len() != 4 || p2.Generalizations() != 1 {
		t.Fatalf("LRTI->pneumonia path = %+v, want 4 hops with 1 generalization", p2)
	}
	if got, want := w.PathWeight(p2), math.Pow(0.9, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("path2 weight = %v, want %v", got, want)
	}
}

func TestGenerateNewSystemsPresent(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	systems := map[string]bool{}
	for _, id := range w.Findings {
		systems[w.Attrs[id].System] = true
	}
	for _, want := range []string{"otolaryngologic", "immunologic", "respiratory", "cardiovascular"} {
		if !systems[want] {
			t.Errorf("no findings for body system %q", want)
		}
	}
	for _, name := range []string{"otitis media", "lymphadenopathy", "stroke", "angina"} {
		if findings(w, name) == nil {
			t.Errorf("curated finding %q missing", name)
		}
	}
}

func TestGenerateScaleLargeWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("large world generation")
	}
	w, err := synthkb.Generate(synthkb.Config{Seed: 77, ConditionsPerPair: 6})
	if err != nil {
		t.Fatal(err)
	}
	if w.Graph.Len() < 3000 {
		t.Errorf("large world only %d concepts", w.Graph.Len())
	}
	if err := w.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Topological order and common subsumers remain well-behaved at scale.
	order, err := w.Graph.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != w.Graph.Len() {
		t.Error("topological order incomplete")
	}
	va, _ := w.Graph.SubsumerVec(w.Findings[10])
	vb, _ := w.Graph.SubsumerVec(w.Findings[len(w.Findings)-10])
	common := 0
	eks.CommonSubsumers(va, vb, func(eks.ConceptID, int, int) { common++ })
	if common == 0 {
		t.Error("no common subsumer on rooted large world")
	}
}

// findings returns the world's findings whose preferred name is name.
func findings(w *synthkb.World, name string) []eks.ConceptID {
	var out []eks.ConceptID
	for _, id := range w.Findings {
		if c, _ := w.Graph.Concept(id); c.Name == name {
			out = append(out, id)
		}
	}
	return out
}
