package medrelax

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"medrelax/internal/dialog"
	"medrelax/internal/eks"
	"medrelax/internal/engine"
	"medrelax/internal/eval"
	"medrelax/internal/match"
	"medrelax/internal/persist"
)

// probeTypos misspell names the default world registers, within the edit
// matcher's reach or just past it.
var probeTypos = []string{
	"hedache", "feverr", "pnuemonia", "asthmaa", "diabetis", "arthritus",
	"gastritiss", "anemai", "kidney diseas", "otitis medai", "pyelectasa", "arrythmia",
}

// probeTerms are the terms a built world and its bundle must answer alike:
// every latent paraphrase of the world (by concept id), the typo set, and one
// term nothing knows.
func probeTerms(sys *System) []string {
	ids := make([]eks.ConceptID, 0, len(sys.World.Latent))
	for id := range sys.World.Latent {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var terms []string
	for _, id := range ids {
		terms = append(terms, sys.World.Latent[id]...)
	}
	terms = append(terms, probeTypos...)
	return append(terms, "quantum chromodynamics")
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBuiltAndLoadedAnswerAlike holds a built world to the bundle it saves:
// every snapshot resolves query terms through the one bundle mapper, so
// sys.Engine and engine.LoadSnapshot of the system's own flat save give the
// same results, sources and explanations included, and the same error text,
// for paraphrases, typos and an unknown term, on one source and on two.
func TestBuiltAndLoadedAnswerAlike(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB) *System
	}{{"single", sharedSystem}, {"two-source", twoSourceSystem}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build(t)
			path := filepath.Join(t.TempDir(), "own.flat")
			if err := persist.SaveFileAtomic(path, sys.Ingestion, persist.FormatFlat); err != nil {
				t.Fatalf("saving the system's bundle: %v", err)
			}
			loaded, err := engine.LoadSnapshot(path)
			if err != nil {
				t.Fatalf("loading the system's bundle: %v", err)
			}
			t.Cleanup(func() { loaded.Close() })

			var reqs []engine.Request
			for _, term := range probeTerms(sys) {
				for _, explain := range []bool{false, true} {
					reqs = append(reqs, engine.Request{Term: term, Context: ContextIndication, K: 5, Explain: explain})
				}
			}
			built := sys.Engine.RelaxBatch(context.Background(), reqs)
			load := loaded.RelaxBatch(context.Background(), reqs)
			differ, answered := 0, 0
			for i, req := range reqs {
				b, l := built[i], load[i]
				if b.Err == nil {
					answered++
				}
				if errText(b.Err) != errText(l.Err) || !reflect.DeepEqual(b.Results, l.Results) {
					differ++
					t.Errorf("term %q (explain %v): built answers %d results, err %v; its bundle %d results, err %v",
						req.Term, req.Explain, len(b.Results), b.Err, len(l.Results), l.Err)
				}
			}
			if answered == 0 {
				t.Fatal("no probe term was answered; the comparison shows nothing")
			}
			t.Logf("%d probe requests, %d answered, %d differ", len(reqs), answered, differ)
		})
	}
}

// TestServedMapperPlacement counts where the served query-term mapper places
// the default world's 55 latent paraphrases. A wrong concept is worse than
// none (Algorithm 2 then ranks a confidently wrong neighbourhood; a
// paraphrase the primary cannot place is a second source's job), so the
// wrong count is a ceiling that may only move down. The ingestion mapper
// (EMBEDDING) places 45 of them wrong.
func TestServedMapperPlacement(t *testing.T) {
	const maxWrong = 8
	sys := sharedSystem(t)
	got := eval.EvaluatePlacements(sys.World.Latent, []match.Mapper{sys.Engine.Mapper()})[0]
	if n := got.Right + got.Wrong + got.Unplaced; n != 55 {
		t.Fatalf("%d latent paraphrases counted, want the default world's 55", n)
	}
	if got.Wrong > maxWrong {
		t.Errorf("the served mapper places %d latent paraphrases on the wrong concept, ceiling %d", got.Wrong, maxWrong)
	}
	t.Logf("served mapper: %d right, %d wrong, %d unplaced", got.Right, got.Wrong, got.Unplaced)
}

// TestConcurrentConversationsShareOneDialogue opens sessions of both study
// arms at once on a System whose dialogue is not derived yet: they derive it
// once, share it, and each answers a script exactly as a session opened alone
// does. Run it under -race.
func TestConcurrentConversationsShareOneDialogue(t *testing.T) {
	sys := *sharedSystem(t)
	sys.shared = sync.OnceValues(sys.deriveDialogue)
	script := []string{"what drugs treat headache", "what about fever", "what drugs treat pyelectasia", "1", "what drugs treat brain attack"}
	ask := func(conv *dialog.Conversation) []dialog.Response {
		out := make([]dialog.Response, 0, len(script))
		for _, text := range script {
			out = append(out, conv.Ask(text))
		}
		return out
	}

	const sessions = 6
	got := make([][]dialog.Response, sessions)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conv, err := sys.NewConversation(i%2 == 0)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = ask(conv)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// A session on its own derives its parts as every session once did.
	classifier, err := dialog.TrainIntentClassifier(dialog.GenerateTrainingExamples(sys.Med.Ontology, sys.Med.Store, sys.Config.Seed+5, 0))
	if err != nil {
		t.Fatal(err)
	}
	extractor := dialog.NewMentionExtractor(sys.Med.Store, sys.World.Graph.NameKeys())
	opts := sys.Config.Relax
	opts.IncludeSelf = true
	want := map[bool][]dialog.Response{
		true:  ask(dialog.NewConversation(sys.Med.Store, sys.Med.Ontology, classifier, extractor, sys.Engine.NewRelaxer(opts), sys.Ingestion)),
		false: ask(dialog.NewConversation(sys.Med.Store, sys.Med.Ontology, classifier, extractor, nil, nil)),
	}
	if reflect.DeepEqual(want[true], want[false]) {
		t.Fatal("the script answers alike with and without QR; it shows nothing")
	}
	for i, g := range got {
		if !reflect.DeepEqual(g, want[i%2 == 0]) {
			t.Errorf("session %d (QR %v) answered %+v; alone it answers %+v", i, i%2 == 0, g, want[i%2 == 0])
		}
	}
}
