package dialog

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

// The test world mirrors the paper's Figures 7 and 8: "pyelectasia" exists
// in the external knowledge source but not in the KB; "kidney disease" is a
// nearby flagged concept with drug information; "fever" has both direct
// answers and related conditions.
func testWorld(t *testing.T) (*ontology.Ontology, *kb.Store, *core.Ingestion, *core.Relaxer) {
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

	g := eks.New()
	concepts := []eks.Concept{
		{ID: 1, Name: "clinical finding"},
		{ID: 2, Name: "kidney disease", Synonyms: []string{"nephropathy"}},
		{ID: 3, Name: "pyelectasia"},
		{ID: 4, Name: "chronic kidney disease"},
		{ID: 5, Name: "fever", Synonyms: []string{"pyrexia"}},
		{ID: 6, Name: "psychogenic fever"},
		{ID: 7, Name: "headache"},
		{ID: 8, Name: "bronchitis"},
	}
	for _, c := range concepts {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]eks.ConceptID{{2, 1}, {3, 2}, {4, 2}, {5, 1}, {6, 5}, {7, 1}, {8, 1}} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		t.Fatal(err)
	}

	store := kb.NewStore(o)
	instances := []kb.Instance{
		{ID: 1, Concept: "Drug", Name: "amoxicillin"},
		{ID: 2, Concept: "Drug", Name: "ibuprofen"},
		{ID: 3, Concept: "Drug", Name: "lisinopril"},
		{ID: 10, Concept: "Indication", Name: "ind-amoxi-bronchitis"},
		{ID: 11, Concept: "Indication", Name: "ind-ibu-fever"},
		{ID: 12, Concept: "Indication", Name: "ind-lis-kidney"},
		{ID: 13, Concept: "Indication", Name: "ind-ibu-headache"},
		{ID: 14, Concept: "Risk", Name: "risk-ibu-kidney"},
		{ID: 20, Concept: "Finding", Name: "kidney disease"},
		{ID: 21, Concept: "Finding", Name: "fever"},
		{ID: 22, Concept: "Finding", Name: "headache"},
		{ID: 23, Concept: "Finding", Name: "bronchitis"},
	}
	for _, inst := range instances {
		if err := store.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
	}
	assertions := []kb.Assertion{
		{Subject: 1, Relationship: "treat", Object: 10},
		{Subject: 2, Relationship: "treat", Object: 11},
		{Subject: 3, Relationship: "treat", Object: 12},
		{Subject: 2, Relationship: "treat", Object: 13},
		{Subject: 2, Relationship: "cause", Object: 14},
		{Subject: 10, Relationship: "hasFinding", Object: 23},
		{Subject: 11, Relationship: "hasFinding", Object: 21},
		{Subject: 12, Relationship: "hasFinding", Object: 20},
		{Subject: 13, Relationship: "hasFinding", Object: 22},
		{Subject: 14, Relationship: "hasFinding", Object: 20},
	}
	for _, a := range assertions {
		if err := store.AddAssertion(a); err != nil {
			t.Fatal(err)
		}
	}

	corp := corpus.New([]corpus.Document{{
		ID: "d1",
		Sections: []corpus.Section{
			{Label: "Indication-hasFinding-Finding",
				Text: "treats kidney disease and fever and headache and bronchitis often"},
			{Label: "Risk-hasFinding-Finding", Text: "may cause kidney disease"},
		},
	}})

	ing, err := core.Ingest(o, store, g, corp, match.NewExact(g), core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	relaxer := core.NewRelaxer(ing, sim, match.NewExact(g), core.RelaxOptions{Radius: 3, DynamicRadius: true})
	return o, store, ing, relaxer
}

func newConversation(t *testing.T, withQR bool) *Conversation {
	t.Helper()
	o, store, ing, relaxer := testWorld(t)
	examples := GenerateTrainingExamples(o, store, 1, 12)
	classifier, err := TrainIntentClassifier(examples)
	if err != nil {
		t.Fatal(err)
	}
	extractor := NewMentionExtractor(store, ing.Graph.FlatData().NameKeys)
	if !withQR {
		return NewConversation(ing, classifier, extractor, nil)
	}
	return NewConversation(ing, classifier, extractor, relaxer)
}

func TestGenerateTrainingExamples(t *testing.T) {
	o, store, _, _ := testWorld(t)
	examples := GenerateTrainingExamples(o, store, 1, 10)
	if len(examples) != 4*10 {
		t.Fatalf("examples = %d, want 40", len(examples))
	}
	byCtx := map[string]int{}
	for _, ex := range examples {
		byCtx[ex.Context.String()]++
		if ex.Text == "" {
			t.Fatal("empty example text")
		}
	}
	if len(byCtx) != 4 {
		t.Errorf("contexts covered = %v", byCtx)
	}
	// Enrichment: different finding instances appear in the workload.
	distinct := map[string]bool{}
	for _, ex := range examples {
		if ex.Context.String() == "Indication-hasFinding-Finding" {
			distinct[ex.Text] = true
		}
	}
	if len(distinct) < 4 {
		t.Errorf("workload not enriched: %v", distinct)
	}
}

func TestIntentClassifier(t *testing.T) {
	o, store, _, _ := testWorld(t)
	examples := GenerateTrainingExamples(o, store, 1, 12)
	c, err := TrainIntentClassifier(examples)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.contexts) != 4 {
		t.Fatalf("contexts = %v", c.contexts)
	}
	cases := []struct {
		text string
		want string
	}{
		{"what drugs treat kidney disease", "Indication-hasFinding-Finding"},
		{"which drugs are used to treat fever", "Indication-hasFinding-Finding"},
		{"what drugs cause kidney disease", "Risk-hasFinding-Finding"},
		{"which drugs list headache as a side effect", "Risk-hasFinding-Finding"},
	}
	for _, cse := range cases {
		got, conf := c.Classify(cse.text)
		if got.String() != cse.want {
			t.Errorf("Classify(%q) = %s (conf %.2f), want %s", cse.text, got, conf, cse.want)
		}
		if conf <= 0 || conf > 1 {
			t.Errorf("confidence %v out of range", conf)
		}
	}
}

func TestIntentClassifierEmpty(t *testing.T) {
	if _, err := TrainIntentClassifier(nil); err == nil {
		t.Error("empty training set must fail")
	}
}

func TestMentionExtractor(t *testing.T) {
	_, store, ing, _ := testWorld(t)
	e := NewMentionExtractor(store, ing.Graph.FlatData().NameKeys)
	ms := e.Extract("what drugs treat kidney disease")
	if len(ms) != 1 || ms[0].Text != "kidney disease" || !ms[0].Known() {
		t.Fatalf("mentions = %+v", ms)
	}
	// EKS-only vocabulary is recognized but unknown to the KB.
	ms = e.Extract("what drugs treat pyelectasia")
	if len(ms) != 1 || ms[0].Text != "pyelectasia" || ms[0].Known() {
		t.Fatalf("mentions = %+v", ms)
	}
	// No mention at all.
	if got := e.Extract("hello there friend"); len(got) != 0 {
		t.Fatalf("mentions = %+v", got)
	}
	// Longest match wins over a prefix word.
	ms = e.Extract("tell me about chronic kidney disease please")
	if len(ms) != 1 || ms[0].Text != "chronic kidney disease" {
		t.Fatalf("mentions = %+v", ms)
	}
}

func TestScenario1RepairUnknownTerm(t *testing.T) {
	c := newConversation(t, true)
	resp := c.Ask("what drugs treat pyelectasia")
	if !resp.Understood || !resp.UsedRelaxation {
		t.Fatalf("repair failed: %+v", resp)
	}
	if len(resp.Suggestions) == 0 {
		t.Fatal("no suggestions offered")
	}
	found := false
	for _, s := range resp.Suggestions {
		if s == "kidney disease" {
			found = true
		}
	}
	if !found {
		t.Fatalf("kidney disease not among suggestions %v", resp.Suggestions)
	}
	// Pick by number.
	follow := c.Ask("1")
	if !follow.Understood || len(follow.Answers) == 0 {
		t.Fatalf("follow-up gave no answers: %+v", follow)
	}
	// The drug treating kidney disease is lisinopril.
	hasDrug := false
	for _, a := range follow.Answers {
		if a == "lisinopril" {
			hasDrug = true
		}
	}
	if !hasDrug {
		t.Errorf("answers = %v, want lisinopril", follow.Answers)
	}
}

func TestScenario1PickByName(t *testing.T) {
	c := newConversation(t, true)
	resp := c.Ask("what drugs treat pyelectasia")
	if len(resp.Suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	follow := c.Ask("kidney disease")
	if !follow.Understood || len(follow.Answers) == 0 {
		t.Fatalf("pick by name failed: %+v", follow)
	}
}

func TestScenario2AnswerExpansion(t *testing.T) {
	c := newConversation(t, true)
	resp := c.Ask("what drugs treat fever")
	if !resp.Understood {
		t.Fatalf("not understood: %+v", resp)
	}
	if len(resp.Answers) == 0 || resp.Answers[0] != "ibuprofen" {
		t.Errorf("answers = %v, want ibuprofen", resp.Answers)
	}
	if !resp.UsedRelaxation || len(resp.Related) == 0 {
		t.Errorf("no expansion offered: %+v", resp)
	}
	// fever itself must not be among the related concepts.
	for _, r := range resp.Related {
		if r == "fever" {
			t.Error("query concept leaked into related list")
		}
	}
}

func TestWithoutQRFailsOnUnknown(t *testing.T) {
	c := newConversation(t, false)
	resp := c.Ask("what drugs treat pyelectasia")
	if resp.Understood || len(resp.Suggestions) != 0 {
		t.Fatalf("no-QR arm must fail on unknown terms: %+v", resp)
	}
	if !strings.Contains(resp.Text, "don't understand") {
		t.Errorf("text = %q", resp.Text)
	}
	// Known terms still work without relaxation, but without expansion.
	resp = c.Ask("what drugs treat fever")
	if !resp.Understood || len(resp.Answers) == 0 {
		t.Fatalf("known term must still answer: %+v", resp)
	}
	if resp.UsedRelaxation || len(resp.Related) != 0 {
		t.Error("no-QR arm must not expand")
	}
}

func TestContextCarryOver(t *testing.T) {
	c := newConversation(t, true)
	first := c.Ask("which drugs have the risk of causing kidney disease")
	if first.Context.String() != "Risk-hasFinding-Finding" {
		t.Fatalf("first context = %s", first.Context)
	}
	if len(first.Answers) == 0 || first.Answers[0] != "ibuprofen" {
		t.Errorf("first answers = %v", first.Answers)
	}
	// Elliptical follow-up inherits the Risk context.
	follow := c.Ask("what about fever")
	if follow.Context.String() != "Risk-hasFinding-Finding" {
		t.Errorf("carried context = %s, want Risk-hasFinding-Finding", follow.Context)
	}
}

func TestReset(t *testing.T) {
	c := newConversation(t, true)
	c.Ask("what drugs treat pyelectasia")
	c.Reset()
	// After reset the pick must not resolve.
	resp := c.Ask("1")
	if resp.Understood {
		t.Error("reset must clear pending suggestions")
	}
}

func TestNoMention(t *testing.T) {
	c := newConversation(t, true)
	resp := c.Ask("tell me something nice")
	if resp.Understood {
		t.Errorf("mention-free input must not be understood: %+v", resp)
	}
}

func TestDrugForwardQuery(t *testing.T) {
	c := newConversation(t, true)
	// Asking about a drug lists the findings of its indications.
	resp := c.Ask("what does ibuprofen treat")
	if !resp.Understood {
		t.Fatalf("drug question not understood: %+v", resp)
	}
	found := map[string]bool{}
	for _, a := range resp.Answers {
		found[a] = true
	}
	if !found["fever"] || !found["headache"] {
		t.Errorf("answers = %v, want fever and headache", resp.Answers)
	}
	// Risk direction: what side effects does ibuprofen have.
	resp = c.Ask("what are the risks of using ibuprofen")
	if !resp.Understood || len(resp.Answers) == 0 {
		t.Fatalf("risk question failed: %+v", resp)
	}
	if resp.Answers[0] != "kidney disease" {
		t.Errorf("risk answers = %v", resp.Answers)
	}
}

func TestClassifyAmong(t *testing.T) {
	o, store, _, _ := testWorld(t)
	examples := GenerateTrainingExamples(o, store, 1, 12)
	c, err := TrainIntentClassifier(examples)
	if err != nil {
		t.Fatal(err)
	}
	// Restricted to Finding-ranged contexts, a treat question lands on the
	// indication context even though drug-focused contexts would fit the
	// words too.
	ctx, conf := c.ClassifyAmong("what drugs treat kidney disease", func(cand ontology.Context) bool {
		return cand.Range == "Finding"
	})
	if ctx.Range != "Finding" {
		t.Errorf("ClassifyAmong escaped the filter: %s", ctx)
	}
	if conf <= 0 {
		t.Errorf("confidence = %v", conf)
	}
	// A filter rejecting everything falls back to unrestricted
	// classification.
	ctx, _ = c.ClassifyAmong("what drugs treat fever", func(ontology.Context) bool { return false })
	if ctx.String() == "" {
		t.Error("fallback classification empty")
	}
}

func TestQuestionTailFallback(t *testing.T) {
	_, store, ing, _ := testWorld(t)
	e := NewMentionExtractor(store, ing.Graph.FlatData().NameKeys)
	// A completely novel term after a question frame becomes a mention.
	ms := e.Extract("what drugs treat glomerulomegaly")
	if len(ms) != 1 || ms[0].Text != "glomerulomegaly" || ms[0].Known() {
		t.Fatalf("mentions = %+v", ms)
	}
	// Stopwords are stripped from the tail.
	ms = e.Extract("what drugs can cure the glomerulomegaly")
	if len(ms) != 1 || ms[0].Text != "glomerulomegaly" {
		t.Fatalf("mentions = %+v", ms)
	}
	// A frame with nothing after it yields no mention.
	if got := e.Extract("what does it treat"); len(got) != 0 {
		t.Fatalf("mentions = %+v", got)
	}
	// No frame at all yields no mention.
	if got := e.Extract("blorp fizzle glomerulomegaly"); len(got) != 0 {
		t.Fatalf("mentions = %+v", got)
	}
}
