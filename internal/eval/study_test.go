package eval

import (
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/dialog"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/nlq"
)

// buildStudyEnv assembles a small but complete two-arm environment.
func buildStudyEnv(t *testing.T) (StudyEnvironment, *core.Ingestion, *core.Relaxer) {
	t.Helper()
	w, med, o := buildOracleWorld(t)
	corp := medkb.BuildCorpus(w, med, medkb.CorpusConfig{Seed: 21})
	mapper := match.NewEdit(w.Graph, 0)
	ing, err := core.Ingest(med.Ontology, med.Store, w.Graph, corp, mapper, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	relaxer := core.NewRelaxer(ing, sim, mapper, core.RelaxOptions{Radius: 3, DynamicRadius: true, IncludeSelf: true})

	newConv := func(withQR bool) *dialog.Conversation {
		examples := dialog.GenerateTrainingExamples(med.Ontology, med.Store, 1, 6)
		classifier, err := dialog.TrainIntentClassifier(examples)
		if err != nil {
			t.Fatal(err)
		}
		extractor := dialog.NewMentionExtractor(med.Store, w.Graph.FlatData().NameKeys)
		if !withQR {
			return dialog.NewConversation(ing, classifier, extractor, nil)
		}
		return dialog.NewConversation(ing, classifier, extractor, relaxer)
	}
	env := StudyEnvironment{
		WithQR:    newConv(true),
		WithoutQR: newConv(false),
		Oracle:    o,
		Flagged:   flaggedSet(ing),
	}
	return env, ing, relaxer
}

// flaggedSet is the ingestion's FEC set in the map form the harness takes.
func flaggedSet(ing *core.Ingestion) map[eks.ConceptID]bool {
	set := map[eks.ConceptID]bool{}
	for _, id := range ing.FlaggedIDs() {
		set[id] = true
	}
	return set
}

func TestRunUserStudySmall(t *testing.T) {
	env, _, _ := buildStudyEnv(t)
	res := RunUserStudy(env, StudyConfig{Seed: 3, Participants: 4, T1Questions: 6, T2Questions: 3})
	if res.WithQR.T1.Total() != 24 || res.WithQR.T2.Total() != 12 {
		t.Fatalf("totals = %d/%d", res.WithQR.T1.Total(), res.WithQR.T2.Total())
	}
	// Every grade is in [1,5] by construction (GradeDist clamps), and the
	// QR arm must not lose to the no-QR arm on the combined average.
	qr := (res.WithQR.T1.Average() + res.WithQR.T2.Average()) / 2
	no := (res.WithoutQR.T1.Average() + res.WithoutQR.T2.Average()) / 2
	if qr < no {
		t.Errorf("QR average %.2f below no-QR %.2f on the small world", qr, no)
	}
	// Deterministic per seed.
	res2 := RunUserStudy(env, StudyConfig{Seed: 3, Participants: 4, T1Questions: 6, T2Questions: 3})
	if res.WithQR.T1 != res2.WithQR.T1 || res.WithoutQR.T2 != res2.WithoutQR.T2 {
		t.Error("study not deterministic for a fixed seed")
	}
}

func TestNLQWorkloadGeneration(t *testing.T) {
	env, ing, _ := buildStudyEnv(t)
	qs := GenerateNLQWorkload(env.Oracle, env.Flagged, NLQConfig{Seed: 5, Questions: 60})
	if len(qs) != 60 {
		t.Fatalf("questions = %d", len(qs))
	}
	kinds := map[string]int{}
	for _, q := range qs {
		if q.Text == "" || q.Target == 0 {
			t.Fatalf("malformed question %+v", q)
		}
		if !strings.HasPrefix(q.Text, "which drugs treat ") {
			t.Fatalf("unexpected phrasing %q", q.Text)
		}
		kinds[q.Kind]++
	}
	for _, k := range []string{"canonical", "unknown-concept"} {
		if kinds[k] == 0 {
			t.Errorf("no %s questions in %v", k, kinds)
		}
	}
	// Unknown-concept questions target unflagged concepts.
	for _, q := range qs {
		if q.Kind == "unknown-concept" && ing.IsFlagged(q.Target) {
			t.Fatalf("unknown-concept question targets flagged %d", q.Target)
		}
	}
}

func TestRunNLQExperimentSmall(t *testing.T) {
	env, ing, relaxer := buildStudyEnv(t)
	med := env.Oracle.Med
	withQR := nlq.NewSystem(med.Ontology, med.Store, relaxer, ing)
	withoutQR := nlq.NewSystem(med.Ontology, med.Store, nil, nil)
	res := RunNLQExperiment(env.Oracle, env.Flagged, withQR, withoutQR, NLQConfig{Seed: 5, Questions: 60})
	if res.WithQR.Total != 60 {
		t.Fatalf("total = %d", res.WithQR.Total)
	}
	if res.WithQR.Answered < res.WithoutQR.Answered {
		t.Errorf("QR answered %d < no-QR %d", res.WithQR.Answered, res.WithoutQR.Answered)
	}
	if res.WithQR.Correct > res.WithQR.Answered || res.WithoutQR.Correct > res.WithoutQR.Answered {
		t.Error("correct cannot exceed answered")
	}
	s := FormatNLQ(res)
	if !strings.Contains(s, "answered") || !strings.Contains(s, "with QR") {
		t.Errorf("format = %s", s)
	}
	// Rates well-defined.
	if res.WithQR.AnsweredRate() < 0 || res.WithQR.AnsweredRate() > 1 {
		t.Errorf("rate = %v", res.WithQR.AnsweredRate())
	}
	var empty NLQOutcome
	if empty.AnsweredRate() != 0 || empty.CorrectRate() != 0 {
		t.Error("empty outcome rates must be 0")
	}
}
