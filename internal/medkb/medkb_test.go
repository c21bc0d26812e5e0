package medkb

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/stringutil"
	"medrelax/internal/strtab"
	"medrelax/internal/synthkb"
)

func world(t *testing.T) *synthkb.World {
	t.Helper()
	w, err := synthkb.Generate(synthkb.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildOntologyScale(t *testing.T) {
	o, err := BuildOntology()
	if err != nil {
		t.Fatal(err)
	}
	if o.ConceptCount() != 43 {
		t.Errorf("concepts = %d, want 43 (paper Section 7.1)", o.ConceptCount())
	}
	if o.RelationshipCount() != 58 {
		t.Errorf("relationships = %d, want 58 (paper Section 7.1)", o.RelationshipCount())
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// The Figure 1 contexts exist.
	found := map[string]bool{}
	for _, c := range o.Contexts() {
		found[c.String()] = true
	}
	for _, want := range []string{
		"Drug-treat-Indication", "Drug-cause-Risk",
		CtxIndicationFinding, CtxRiskFinding,
	} {
		if !found[want] {
			t.Errorf("missing context %s", want)
		}
	}
}

func TestGenerateMED(t *testing.T) {
	w := world(t)
	med, err := Generate(w, Config{Seed: 2, Drugs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(med.DrugNames) != 40 {
		t.Errorf("drugs = %d", len(med.DrugNames))
	}
	if len(med.Gold) < 100 {
		t.Errorf("covered findings = %d, suspiciously few", len(med.Gold))
	}
	// Gold mappings point at finding concepts of the world.
	for iid, cid := range med.Gold {
		if w.Attrs[cid].Kind != synthkb.KindFinding {
			t.Fatalf("gold of instance %d is not a finding: %d", iid, cid)
		}
		inst, ok := med.Store.Instance(iid)
		if !ok || inst.Concept != ConceptFinding {
			t.Fatalf("gold instance %d missing or mistyped", iid)
		}
	}
	// Treated/Caused are subsets of covered concepts.
	for cid := range med.Treated {
		if _, ok := med.FindingInstance[cid]; !ok {
			t.Fatalf("treated concept %d not covered", cid)
		}
	}
	if len(med.Treated) == 0 || len(med.Caused) == 0 {
		t.Error("no treated or caused findings generated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := world(t)
	m1, err := Generate(w, Config{Seed: 5, Drugs: 20})
	if err != nil {
		t.Fatal(err)
	}
	w2 := world(t)
	m2, err := Generate(w2, Config{Seed: 5, Drugs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Store.Len() != m2.Store.Len() {
		t.Fatalf("sizes differ: %d vs %d", m1.Store.Len(), m2.Store.Len())
	}
	for _, inst := range m1.Store.AllInstances() {
		other, ok := m2.Store.Instance(inst.ID)
		if !ok || other.Name != inst.Name {
			t.Fatalf("instance %d differs: %q vs %q", inst.ID, inst.Name, other.Name)
		}
	}
}

func TestVariationClassDistribution(t *testing.T) {
	w := world(t)
	med, err := Generate(w, Config{Seed: 2, Drugs: 10})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[VariationClass]int{}
	for _, c := range med.Class {
		counts[c]++
	}
	total := len(med.Class)
	if total == 0 {
		t.Fatal("no classified instances")
	}
	exact := float64(counts[ClassExact]) / float64(total)
	if exact < 0.70 || exact > 0.95 {
		t.Errorf("exact fraction = %v, want ~0.83 band", exact)
	}
	for _, cls := range []VariationClass{ClassTypo, ClassParaphrase, ClassNovel} {
		if counts[cls] == 0 {
			t.Errorf("no instances of class %s", cls)
		}
	}
	// Class name rendering.
	if ClassExact.String() != "exact" || ClassTypo.String() != "typo" ||
		ClassParaphrase.String() != "paraphrase" || ClassNovel.String() != "novel" {
		t.Error("class names wrong")
	}
	if VariationClass(42).String() == "" {
		t.Error("unknown class must still render")
	}
}

func TestVariationClassesMatchable(t *testing.T) {
	w := world(t)
	med, err := Generate(w, Config{Seed: 2, Drugs: 10})
	if err != nil {
		t.Fatal(err)
	}
	for iid, cls := range med.Class {
		inst, _ := med.Store.Instance(iid)
		gold := med.Gold[iid]
		exactHits := w.Graph.LookupName(inst.Name)
		isExactHit := false
		for _, h := range exactHits {
			if h == gold {
				isExactHit = true
			}
		}
		switch cls {
		case ClassExact:
			if !isExactHit {
				t.Errorf("exact instance %q does not exact-match its gold %d", inst.Name, gold)
			}
		case ClassTypo:
			if isExactHit {
				t.Errorf("typo instance %q exact-matches — not a typo", inst.Name)
			}
			goldName, _ := w.Graph.Concept(gold)
			if stringutil.Levenshtein(stringutil.Normalize(inst.Name), stringutil.Normalize(goldName.Name)) > 2 {
				t.Errorf("typo instance %q is more than 2 edits from %q", inst.Name, goldName.Name)
			}
		case ClassParaphrase, ClassNovel:
			if isExactHit {
				t.Errorf("%s instance %q exact-matches its gold", cls, inst.Name)
			}
		}
	}
}

func TestBuildCorpus(t *testing.T) {
	w := world(t)
	med, err := Generate(w, Config{Seed: 2, Drugs: 30})
	if err != nil {
		t.Fatal(err)
	}
	c := BuildCorpus(w, med, CorpusConfig{Seed: 3})
	if c.DocCount() != 30 {
		t.Errorf("documents = %d, want one per drug", c.DocCount())
	}
	// Popular treated findings are actually mentioned under the indication
	// label, and findings are mentioned under the two finding labels only.
	var names, keys []string
	for cid := range med.Treated {
		concept, _ := w.Graph.Concept(cid)
		names = append(names, concept.Name)
		keys = append(keys, stringutil.Normalize(concept.Name))
	}
	slices.Sort(keys)
	stats := c.CountPhrasesN(strtab.Pack(slices.Compact(keys)), 1)
	mentioned := 0
	labels := map[string]bool{}
	for _, st := range stats {
		if st.TF[CtxIndicationFinding] > 0 {
			mentioned++
		}
		for label := range st.TF {
			labels[label] = true
		}
	}
	if len(labels) != 2 || !labels[CtxIndicationFinding] || !labels[CtxRiskFinding] {
		t.Errorf("labels = %v, want the indication and risk finding labels", labels)
	}
	if mentioned < len(names)/2 {
		t.Errorf("only %d/%d treated findings mentioned under the indication label", mentioned, len(names))
	}
	if n := tokenCount(c); n < 2000 {
		t.Errorf("corpus suspiciously small: %d tokens", n)
	}
}

// tokenCount is a corpus's total number of tokens.
func tokenCount(c *corpus.Corpus) int {
	n := 0
	for _, stream := range c.TokenStreams() {
		n += len(stream)
	}
	return n
}

func TestBuildCorpusDeterministic(t *testing.T) {
	w := world(t)
	med, err := Generate(w, Config{Seed: 2, Drugs: 10})
	if err != nil {
		t.Fatal(err)
	}
	c1 := BuildCorpus(w, med, CorpusConfig{Seed: 3})
	c2 := BuildCorpus(w, med, CorpusConfig{Seed: 3})
	if tokenCount(c1) != tokenCount(c2) {
		t.Error("corpus generation not deterministic")
	}
}

// TestGenerateWorldSeeds: zero stage seeds are seed and seed+1, the corpus
// is seeded seed+2, and an explicit stage seed wins.
func TestGenerateWorldSeeds(t *testing.T) {
	type columns struct {
		graph  eks.FlatGraphData
		store  kb.FlatStoreData
		corpus [][]string
	}
	gen := func(source, med int64) columns {
		t.Helper()
		w, m, c, err := GenerateWorld(11, synthkb.Config{Seed: source}, Config{Seed: med, Drugs: 20})
		if err != nil {
			t.Fatal(err)
		}
		if want := BuildCorpus(w, m, CorpusConfig{Seed: 13}).TokenStreams(); !reflect.DeepEqual(c.TokenStreams(), want) {
			t.Error("the corpus is not seeded seed+2")
		}
		return columns{w.Graph.FlatData(), m.Store.FlatData(), c.TokenStreams()}
	}
	derived := gen(0, 0)
	if !reflect.DeepEqual(derived, gen(11, 12)) {
		t.Error("zero stage seeds do not derive seed, seed+1")
	}
	explicit := gen(0, 40)
	if !reflect.DeepEqual(explicit, gen(11, 40)) {
		t.Error("an explicit MED seed with a zero source seed is not the pair (11, 40)")
	}
	if reflect.DeepEqual(explicit.store, derived.store) {
		t.Error("the explicit MED seed was ignored")
	}
}

// TestGenerateWorldIsFresh: ingestion customizes a graph in place, so two
// calls must not share one.
func TestGenerateWorldIsFresh(t *testing.T) {
	a, _, _, err := GenerateWorld(11, synthkb.Config{}, Config{Drugs: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := GenerateWorld(11, synthkb.Config{}, Config{Drugs: 20})
	if err != nil {
		t.Fatal(err)
	}
	edges := b.Graph.EdgeCount()
	for _, id := range a.Findings {
		for _, p := range a.Graph.UpEdges(id) {
			for _, gp := range a.Graph.UpEdges(p.To) {
				if a.Graph.HasEdge(id, gp.To) {
					continue
				}
				if err := a.Graph.AddShortcutEdge(id, gp.To, 2); err != nil {
					t.Fatal(err)
				}
				if got := a.Graph.EdgeCount(); got != edges+1 {
					t.Fatalf("the shortcut left %d edges, want %d", got, edges+1)
				}
				if got := b.Graph.EdgeCount(); got != edges {
					t.Fatalf("a shortcut added to one world's graph moved the other's edge count %d -> %d", edges, got)
				}
				return
			}
		}
	}
	t.Fatal("no finding has a grandparent to shortcut to")
}

func TestParaphraseByLexicon(t *testing.T) {
	if got, ok := paraphraseByLexicon("lung infection"); !ok || got != "lung infectious process" {
		t.Errorf("paraphraseByLexicon = %q,%v", got, ok)
	}
	if _, ok := paraphraseByLexicon("pneumonia"); ok {
		t.Error("no substitutable token must report false")
	}
}

func TestIntroduceTypoBounds(t *testing.T) {
	w := world(t)
	_ = w
	if _, ok := introduceTypo(newRand(1), "abc"); ok {
		t.Error("short names must be left alone")
	}
	for i := int64(0); i < 50; i++ {
		typo, ok := introduceTypo(newRand(i), "bronchitis of the lung")
		if !ok {
			t.Fatal("typo must apply to long names")
		}
		d := stringutil.Levenshtein(typo, "bronchitis of the lung")
		if d < 1 || d > 2 {
			t.Errorf("typo distance = %d for %q", d, typo)
		}
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestAncillaryDataBreadth(t *testing.T) {
	w := world(t)
	med, err := Generate(w, Config{Seed: 6, Drugs: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Every drug carries a dosage chain, identity data and education.
	for _, concept := range []string{
		"Dosage", "Route", "Form", "Strength", "DrugClass", "Manufacturer",
		"ApprovalStatus", "Pharmacokinetics", "HalfLife", "Metabolism",
		"Excretion", "Education",
	} {
		if n := len(med.Store.InstancesOf(concept)); n < 30 {
			t.Errorf("%s instances = %d, want >= 30 (one per drug)", concept, n)
		}
	}
	// Probabilistic sections appear for a fraction of drugs.
	for _, concept := range []string{"Brand", "Toxicology", "Overdose", "Antidote", "Monitoring", "LabTest", "Guideline", "Evidence", "DrugInteraction"} {
		if n := len(med.Store.InstancesOf(concept)); n == 0 {
			t.Errorf("no %s instances generated", concept)
		}
	}
	// The dosage chain is navigable.
	drug := med.Store.InstancesOf(ConceptDrug)[0]
	dosages := med.Store.Objects("hasDosage", drug)
	if len(dosages) != 1 {
		t.Fatalf("dosages = %d", len(dosages))
	}
	if len(med.Store.Objects("hasRoute", dosages[0])) != 1 {
		t.Error("dosage missing route")
	}
	// Interactions connect two distinct drugs.
	for _, iid := range med.Store.InstancesOf("DrugInteraction") {
		subs := med.Store.Subjects("hasInteraction", iid)
		objs := med.Store.Objects("interactsWithDrug", iid)
		if len(subs) != 1 || len(objs) != 1 || subs[0] == objs[0] {
			t.Fatalf("interaction %d malformed: subjects %v objects %v", iid, subs, objs)
		}
	}
}
