package medrelax

import (
	"sync"
	"testing"

	"medrelax/internal/eval"
)

// The default system takes a couple of seconds to build (world generation,
// corpus, two embedding models, ingestion); tests share one instance.
var (
	sysOnce sync.Once
	sysInst *System
	sysErr  error
)

func sharedSystem(tb testing.TB) *System {
	tb.Helper()
	sysOnce.Do(func() {
		sysInst, sysErr = Build(DefaultConfig())
	})
	if sysErr != nil {
		tb.Fatal(sysErr)
	}
	return sysInst
}

func TestBuildSystem(t *testing.T) {
	sys := sharedSystem(t)
	if sys.World.Graph.Len() < 800 {
		t.Errorf("EKS too small: %d concepts", sys.World.Graph.Len())
	}
	if sys.Med.Ontology.ConceptCount() != 43 || sys.Med.Ontology.RelationshipCount() != 58 {
		t.Errorf("MED ontology = %d/%d, want 43/58",
			sys.Med.Ontology.ConceptCount(), sys.Med.Ontology.RelationshipCount())
	}
	if sys.Med.Store.Len() < 1000 {
		t.Errorf("MED too small: %d instances", sys.Med.Store.Len())
	}
	if sys.Ingestion.FlaggedCount() == 0 || sys.Ingestion.ShortcutsAdded == 0 {
		t.Error("ingestion produced no flags or shortcuts")
	}
	if len(sys.Ingestion.Contexts) != 58 {
		t.Errorf("contexts = %d, want 58 (one per relationship)", len(sys.Ingestion.Contexts))
	}
	if len(sys.Methods) != 6 {
		t.Errorf("methods = %d, want 6", len(sys.Methods))
	}
	if sys.Corpus.DocCount() == 0 || sys.GeneralCorpus.DocCount() == 0 {
		t.Error("corpora missing")
	}
}

func TestBuildErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MapperName = "NOPE"
	if _, err := Build(cfg); err == nil {
		t.Error("unknown mapper must fail")
	}
}

func TestRelaxEndToEnd(t *testing.T) {
	sys := sharedSystem(t)
	// "pyelectasia" is a curated concept; it may or may not have a KB
	// instance, but relaxation must return scored, named results.
	results, err := sys.Relax("pyelectasia", ContextIndication, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no relaxed results")
	}
	for i, r := range results {
		if r.Concept == "" {
			t.Errorf("result %d has no name", i)
		}
		if r.Score < 0 || r.Score > 1 {
			t.Errorf("score %v out of range", r.Score)
		}
		if i > 0 && results[i-1].Score < r.Score {
			t.Error("results not sorted by score")
		}
		if len(r.Instances) == 0 {
			t.Errorf("result %s has no KB instances (must be flagged)", r.Concept)
		}
	}
	// Context strings are validated.
	if _, err := sys.Relax("fever", "not-a-context-really-bad", 5); err == nil {
		t.Error("malformed context must fail")
	}
	// Unmappable terms are reported.
	if _, err := sys.Relax("zzqx blorp vrill", ContextIndication, 5); err == nil {
		t.Error("unmappable term must fail")
	}
	// Empty context relaxes without contextual information.
	if _, err := sys.Relax("fever", "", 5); err != nil {
		t.Errorf("context-free relaxation failed: %v", err)
	}
}

func TestTable1Shape(t *testing.T) {
	sys := sharedSystem(t)
	rows := sys.Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]eval.MapperScore{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	exact, edit, emb := byName["EXACT"], byName["EDIT"], byName["EMBEDDING"]
	// Paper Table 1 shape: EXACT has perfect precision but the lowest
	// recall; EDIT recovers typos; EMBEDDING has the highest recall.
	if exact.Precision != 100 {
		t.Errorf("EXACT precision = %v, want 100", exact.Precision)
	}
	if !(exact.Recall < edit.Recall && edit.Recall < emb.Recall) {
		t.Errorf("recall ordering violated: EXACT %.1f, EDIT %.1f, EMBEDDING %.1f",
			exact.Recall, edit.Recall, emb.Recall)
	}
	if exact.Recall < 75 || exact.Recall > 95 {
		t.Errorf("EXACT recall %.1f outside the paper's band (~83)", exact.Recall)
	}
	if emb.Precision < 85 {
		t.Errorf("EMBEDDING precision %.1f too low", emb.Precision)
	}
}

func TestTable2Shape(t *testing.T) {
	sys := sharedSystem(t)
	rows := sys.Table2(100, 10)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	f1 := map[string]float64{}
	for _, r := range rows {
		f1[r.Method] = r.F1
	}
	// Paper Table 2 shape: QR wins; dropping context hurts; dropping the
	// corpus hurts more; the embedding baselines trail the QR family, with
	// the domain-mismatched pre-trained model worst of all.
	if !(f1["QR"] > f1["QR-no-context"]) {
		t.Errorf("QR (%.1f) must beat QR-no-context (%.1f)", f1["QR"], f1["QR-no-context"])
	}
	if !(f1["QR-no-context"] > f1["QR-no-corpus"]) {
		t.Errorf("QR-no-context (%.1f) must beat QR-no-corpus (%.1f)", f1["QR-no-context"], f1["QR-no-corpus"])
	}
	if !(f1["QR"] > f1["IC"]) {
		t.Errorf("QR (%.1f) must beat the IC baseline (%.1f)", f1["QR"], f1["IC"])
	}
	if !(f1["Embedding-trained"] > f1["Embedding-pre-trained"]) {
		t.Errorf("trained (%.1f) must beat pre-trained (%.1f)",
			f1["Embedding-trained"], f1["Embedding-pre-trained"])
	}
	if !(f1["QR"] > f1["Embedding-trained"]) {
		t.Errorf("QR (%.1f) must beat Embedding-trained (%.1f)", f1["QR"], f1["Embedding-trained"])
	}
	if f1["Embedding-pre-trained"] >= f1["IC"] {
		t.Errorf("pre-trained (%.1f) must be the weakest family (IC %.1f)",
			f1["Embedding-pre-trained"], f1["IC"])
	}
}

func TestTable3Shape(t *testing.T) {
	sys := sharedSystem(t)
	res, err := sys.Table3(eval.StudyConfig{Participants: 10})
	if err != nil {
		t.Fatal(err)
	}
	qr1, qr2 := res.WithQR.T1.Average(), res.WithQR.T2.Average()
	no1, no2 := res.WithoutQR.T1.Average(), res.WithoutQR.T2.Average()
	// Paper Table 3 shape: relaxation lifts satisfaction in both tasks
	// (about 20% in the paper), and the guided task T1 scores at least as
	// well as the free task T2 for the baseline system.
	if qr1 <= no1 || qr2 <= no2 {
		t.Errorf("QR must beat no-QR: T1 %.2f vs %.2f, T2 %.2f vs %.2f", qr1, no1, qr2, no2)
	}
	if (qr1+qr2)/2 < 1.1*(no1+no2)/2 {
		t.Errorf("QR lift too small: QR avg %.2f vs no-QR avg %.2f", (qr1+qr2)/2, (no1+no2)/2)
	}
	if no2 > no1 {
		t.Errorf("free task must not beat guided task without QR: T1 %.2f, T2 %.2f", no1, no2)
	}
	// Distributions are complete.
	if res.WithQR.T1.Total() != 10*20 || res.WithQR.T2.Total() != 10*10 {
		t.Errorf("totals = %d/%d", res.WithQR.T1.Total(), res.WithQR.T2.Total())
	}
}

func TestConversationIntegration(t *testing.T) {
	sys := sharedSystem(t)
	conv, err := sys.NewConversation(true)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a treated finding whose KB instance carries the canonical name
	// (an exact-class instance), and ask about it canonically.
	var name string
	for cid := range sys.Med.Treated {
		c, _ := sys.World.Graph.Concept(cid)
		iid := sys.Med.FindingInstance[cid]
		if inst, ok := sys.Med.Store.Instance(iid); ok && inst.Name == c.Name {
			name = c.Name
			break
		}
	}
	if name == "" {
		t.Fatal("no exact-named treated finding found")
	}
	resp := conv.Ask("what drugs treat " + name)
	if !resp.Understood {
		t.Fatalf("canonical question not understood: %+v", resp)
	}
	if len(resp.Answers) == 0 {
		t.Errorf("no answers for treated finding %q", name)
	}
}

// TestTable2ShapeAcrossSeeds guards the headline orderings against seed
// luck: the full QR-family ordering of the paper must hold on a second,
// unrelated seed too.
func TestTable2ShapeAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an extra system")
	}
	cfg := DefaultConfig()
	cfg.Seed = 1234
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f1 := map[string]float64{}
	for _, r := range sys.Table2(100, 10) {
		f1[r.Method] = r.F1
	}
	order := []string{"QR", "QR-no-context", "QR-no-corpus", "IC", "Embedding-trained", "Embedding-pre-trained"}
	for i := 1; i < len(order); i++ {
		if f1[order[i-1]] <= f1[order[i]] {
			t.Errorf("seed 1234: %s (%.1f) must beat %s (%.1f)",
				order[i-1], f1[order[i-1]], order[i], f1[order[i]])
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping second build in -short mode")
	}
	a := sharedSystem(t)
	b, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Table1(), b.Table1()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("Table 1 not deterministic: %+v vs %+v", ra[i], rb[i])
		}
	}
	if a.World.Graph.Len() != b.World.Graph.Len() || a.Ingestion.ShortcutsAdded != b.Ingestion.ShortcutsAdded {
		t.Error("world or ingestion not deterministic")
	}
}

func TestNLQExperimentShape(t *testing.T) {
	sys := sharedSystem(t)
	res := sys.NLQExperiment(eval.NLQConfig{Questions: 120})
	if res.WithQR.Total != 120 || res.WithoutQR.Total != 120 {
		t.Fatalf("totals = %d/%d", res.WithQR.Total, res.WithoutQR.Total)
	}
	// Relaxation must expand the set of answerable queries — the title
	// claim — and the expansion must be mostly correct.
	if res.WithQR.Answered <= res.WithoutQR.Answered {
		t.Errorf("QR answered %d <= no-QR %d", res.WithQR.Answered, res.WithoutQR.Answered)
	}
	if res.WithQR.Correct <= res.WithoutQR.Correct {
		t.Errorf("QR correct %d <= no-QR %d", res.WithQR.Correct, res.WithoutQR.Correct)
	}
	// Without relaxation, unknown-concept questions are mostly unanswerable
	// (the few exceptions ground a shorter lexical span, e.g. "mild lung
	// cyst" falling back to the covered "lung cyst" — plain NLQ matching,
	// not relaxation).
	if res.WithoutQR.ByKind["unknown-concept"] >= res.WithQR.ByKind["unknown-concept"] {
		t.Errorf("no-QR arm answered %d unknown-concept questions, QR %d",
			res.WithoutQR.ByKind["unknown-concept"], res.WithQR.ByKind["unknown-concept"])
	}
	// With relaxation, both classes get correct answers.
	if res.WithQR.ByKind["colloquial"] == 0 || res.WithQR.ByKind["unknown-concept"] == 0 {
		t.Errorf("QR breakdown = %v", res.WithQR.ByKind)
	}
	// Canonical questions are answered by both arms.
	if res.WithoutQR.ByKind["canonical"] == 0 {
		t.Error("no-QR arm failed canonical questions")
	}
	t.Logf("\n%s", eval.FormatNLQ(res))
}
