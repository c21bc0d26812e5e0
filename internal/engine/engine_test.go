package engine

import (
	"bytes"
	"context"
	"errors"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/corpus"
	"medrelax/internal/dialog"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
	"medrelax/internal/persist"
	"medrelax/internal/trace"
)

// testIngestion builds the small Figure 7/8-shaped world the server tests
// use: a four-concept EKS over a Drug/Indication/Risk/Finding ontology
// with two flagged findings.
func testIngestion(t *testing.T) *core.Ingestion {
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
	for _, c := range []eks.Concept{
		{ID: 1, Name: "clinical finding"},
		{ID: 2, Name: "kidney disease"},
		{ID: 3, Name: "pyelectasia"},
		{ID: 4, Name: "fever"},
	} {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]eks.ConceptID{{2, 1}, {3, 2}, {4, 1}} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		t.Fatal(err)
	}
	store := kb.NewStore(o)
	for _, inst := range []kb.Instance{
		{ID: 1, Concept: "Drug", Name: "lisinopril"},
		{ID: 10, Concept: "Indication", Name: "ind-kidney"},
		{ID: 20, Concept: "Finding", Name: "kidney disease"},
		{ID: 21, Concept: "Finding", Name: "fever"},
	} {
		if err := store.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []kb.Assertion{
		{Subject: 1, Relationship: "treat", Object: 10},
		{Subject: 10, Relationship: "hasFinding", Object: 20},
	} {
		if err := store.AddAssertion(a); err != nil {
			t.Fatal(err)
		}
	}
	corp := corpus.New([]corpus.Document{{ID: "d", Sections: []corpus.Section{
		{Label: "Indication-hasFinding-Finding", Text: "kidney disease kidney disease fever"},
	}}})
	ing, err := core.Ingest(o, store, g, corp, match.NewExact(g), core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

// relax asks s one request without a deadline.
func relax(s *Snapshot, term, qctx string, k int) ([]RelaxResult, error) {
	resp := s.RelaxBatch(context.Background(), []Request{{Term: term, Context: qctx, K: k}})[0]
	return resp.Results, resp.Err
}

func TestSnapshotServesAndReports(t *testing.T) {
	snap := New(testIngestion(t), Config{})

	results, err := relax(snap, "pyelectasia", "", 5)
	if err != nil {
		t.Fatalf("Relax: %v", err)
	}
	if len(results) == 0 {
		t.Fatal("Relax returned no results for a relaxable term")
	}
	for _, r := range results {
		if r.Concept == "" {
			t.Errorf("result with unresolved concept name: %+v", r)
		}
	}

	if _, err := relax(snap, "no such term", "", 5); !errors.Is(err, core.ErrUnknownTerm) {
		t.Errorf("unknown term: err = %v, want ErrUnknownTerm", err)
	}
	if _, err := relax(snap, "pyelectasia", "totally-bogus", 5); !errors.Is(err, core.ErrBadContext) {
		t.Errorf("bad context: err = %v, want ErrBadContext", err)
	}

	terms := snap.Terms(100)
	if len(terms) == 0 {
		t.Fatal("Terms returned no flagged terms")
	}
	if again := snap.Terms(100); !reflect.DeepEqual(terms, again) {
		t.Error("Terms is not deterministic")
	}
	if short := snap.Terms(1); len(short) != 1 || short[0] != terms[0] {
		t.Errorf("Terms(1) = %v, want prefix of %v", short, terms)
	}

	stats := snap.Stats()
	for _, key := range []string{"eksConcepts", "eksEdges", "kbInstances", "flaggedConcepts"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("Stats missing %q: %v", key, stats)
		}
	}
	// One term relaxed live, once: its geometry was walked and is held. The
	// same term under another k scores the stored walk.
	geometry, _ := stats["relaxGeometry"].(map[string]uint64)
	if geometry["fills"] != 1 || geometry["hits"] != 0 || geometry["bytes"] == 0 {
		t.Errorf("Stats relaxGeometry after one live relaxation = %v, want one fill holding bytes", geometry)
	}
	// It was asked under one context: one IC plane, a float per ranked node.
	if geometry["planes"] != 1 || geometry["planeBytes"] == 0 || geometry["planeBytes"]%8 != 0 {
		t.Errorf("Stats relaxGeometry after one live relaxation = %v, want one IC plane holding bytes", geometry)
	}
	if _, err := relax(snap, "pyelectasia", "", 3); err != nil {
		t.Fatal(err)
	}
	if geometry, _ = snap.Stats()["relaxGeometry"].(map[string]uint64); geometry["fills"] != 1 || geometry["hits"] != 1 {
		t.Errorf("Stats relaxGeometry after the same term under another k = %v, want one fill and one hit", geometry)
	}
}

func TestSnapshotBatchMatchesSequential(t *testing.T) {
	snap := New(testIngestion(t), Config{})
	items := []Request{
		{Term: "pyelectasia", K: 5},
		{Term: "kidney disease", K: 3},
		{Term: "no such term", K: 5},
		{Term: "fever", Context: "not a context", K: 2},
		{Term: "pyelectasia", K: 5},
	}
	outcomes := snap.RelaxBatch(context.Background(), items)
	if len(outcomes) != len(items) {
		t.Fatalf("got %d outcomes for %d items", len(outcomes), len(items))
	}
	for i, it := range items {
		want, wantErr := relax(snap, it.Term, it.Context, it.K)
		if (wantErr == nil) != (outcomes[i].Err == nil) {
			t.Fatalf("item %d: batch err %v, sequential err %v", i, outcomes[i].Err, wantErr)
		}
		if wantErr != nil {
			if !errors.Is(outcomes[i].Err, wantErr) && outcomes[i].Err.Error() != wantErr.Error() {
				// Same error class is enough; exact wrapping may differ.
				if !(errors.Is(outcomes[i].Err, core.ErrUnknownTerm) && errors.Is(wantErr, core.ErrUnknownTerm)) &&
					!(errors.Is(outcomes[i].Err, core.ErrBadContext) && errors.Is(wantErr, core.ErrBadContext)) {
					t.Errorf("item %d: batch err %v, sequential err %v", i, outcomes[i].Err, wantErr)
				}
			}
			continue
		}
		if !reflect.DeepEqual(outcomes[i].Results, want) {
			t.Errorf("item %d: batch %v != sequential %v", i, outcomes[i].Results, want)
		}
	}
}

// TestBadContextItemCostsNothingBelowEngine holds a batch item whose context
// does not parse away from the kernel: the batch moves the relaxer's path and
// geometry counts by its one good item, a sampled batch records one
// relax.kernel span, and the bad item still answers ErrBadContext.
func TestBadContextItemCostsNothingBelowEngine(t *testing.T) {
	snap := New(testIngestion(t), Config{})
	items := []Request{{Term: "pyelectasia", Context: "not a context!!", K: 5}, {Term: "pyelectasia", K: 5}}
	rec := trace.NewRecorder(1, 1)
	ctx, root := trace.NewTracer("test", 1, rec).StartRequest(context.Background(), http.Header{}, "request")
	out := snap.RelaxBatch(ctx, items)
	root.End()
	if !errors.Is(out[0].Err, core.ErrBadContext) || out[1].Err != nil || len(out[1].Results) == 0 {
		t.Fatalf("batch answered %+v, want ErrBadContext then results", out)
	}
	live, mat, idx := snap.Relaxer().PathCounts()
	hits, fills, refills, mapped, _, _, _, _ := snap.Relaxer().GeometryCounts()
	if live+mat+idx != 1 || hits+fills+refills+mapped != 1 {
		t.Errorf("one good item moved the path counts to %d/%d/%d and the geometry counts to %d hits, %d fills, %d refills, %d mapped; want one request in each",
			live, mat, idx, hits, fills, refills, mapped)
	}
	traces, _ := rec.Snapshot(false)
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	kernels := 0
	for _, sp := range traces[0].Spans {
		if sp.Name == "relax.kernel" {
			kernels++
			if sp.Tag("term") != "pyelectasia" {
				t.Errorf("relax.kernel span with term %q", sp.Tag("term"))
			}
		}
	}
	if kernels != 1 {
		t.Errorf("the batch recorded %d relax.kernel spans, want 1", kernels)
	}
}

func TestLoadSnapshotRoundTrip(t *testing.T) {
	ing := testIngestion(t)
	path := filepath.Join(t.TempDir(), "bundle.flat")
	if err := persist.SaveFileAtomic(path, ing, persist.FormatFlat); err != nil {
		t.Fatal(err)
	}
	built := New(testIngestion(t), Config{})
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if got := loaded.Stats()["source"]; got != path {
		t.Errorf("stats source = %v, want %q", got, path)
	}
	if got, want := loaded.Terms(100), built.Terms(100); !reflect.DeepEqual(got, want) {
		t.Errorf("loaded Terms %v != built Terms %v", got, want)
	}
	for _, term := range loaded.Terms(100) {
		got, err := relax(loaded, term, "", 5)
		if err != nil {
			t.Fatalf("loaded Relax(%q): %v", term, err)
		}
		want, err := relax(built, term, "", 5)
		if err != nil {
			t.Fatalf("built Relax(%q): %v", term, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Relax(%q): loaded %v != built %v", term, got, want)
		}
	}
	// A loaded snapshot opens conversations, and each turn answers as the
	// built world's does: the dialogue is derived from the ingestion alone.
	for _, text := range []string{"what drugs treat kidney disease", "what drugs treat pyelectasia", "what drugs treat nothing known"} {
		var turns [2]dialog.Response
		for i, snap := range []*Snapshot{loaded, built} {
			conv, err := snap.NewConversation()
			if err != nil {
				t.Fatalf("NewConversation: %v", err)
			}
			turns[i] = conv.Ask(text)
		}
		if !reflect.DeepEqual(turns[0], turns[1]) {
			t.Errorf("%q: loaded answers %+v, built %+v", text, turns[0], turns[1])
		}
		if text == "what drugs treat kidney disease" && (!turns[0].Understood || len(turns[0].Answers) == 0) {
			t.Errorf("%q: a loaded conversation answers %+v, want the treating drug", text, turns[0])
		}
	}
	if _, err := LoadSnapshot(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("LoadSnapshot of a missing file should fail")
	}
}

func TestSnapshotConcurrent(t *testing.T) {
	snap := New(testIngestion(t), Config{})
	term := snap.Terms(1)[0]
	want, err := relax(snap, term, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := relax(snap, term, "", 5)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Relax diverged: %v %v", got, err)
					return
				}
				snap.Terms(10)
				snap.Stats()
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotAdoptsMaterializedOptions covers the defaults handshake
// between an accelerated bundle and snapshot assembly: a store built under
// explicit (non-default) RelaxOptions must make a zero-Config snapshot
// serve under exactly those options — otherwise a CLI-built accelerated
// bundle would have its store refused over a defaults mismatch after a
// plain -load. An explicit Config.Relax still wins, refusing the store.
func TestSnapshotAdoptsMaterializedOptions(t *testing.T) {
	ing := testIngestion(t)
	ing.Graph.Freeze()
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	ropts := core.RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 6}
	ing.Materialized = core.MaterializeTopK(ing, sim, core.MaterializeOptions{
		Enabled: true, Relax: ropts, HeadFraction: 1, HeadMax: -1, Contexts: ing.Contexts,
	})

	snap := New(ing, Config{})
	if got := snap.Relaxer().Options(); got != ropts {
		t.Fatalf("zero-Config snapshot serves under %+v, want the store's %+v", got, ropts)
	}
	if !snap.matActive {
		t.Fatal("store built under its own options was not attached")
	}

	explicit := core.RelaxOptions{Radius: 2, DynamicRadius: true, MaxRadius: 8}
	snap = New(ing, Config{Relax: explicit})
	if got := snap.Relaxer().Options(); got != explicit {
		t.Fatalf("explicit options overridden: got %+v, want %+v", got, explicit)
	}
	if snap.matActive {
		t.Fatal("mismatched store must be refused under explicit options")
	}
}

// TestSnapshotServesMappedGeometry: a snapshot over an indexed ingestion
// scores views of the index — its stats count them as mapped, on the indexed
// path, and the geometry memo stays empty — and one whose index cannot be
// attached says in its log which check refused it.
func TestSnapshotServesMappedGeometry(t *testing.T) {
	indexed := func(radius int) *core.Ingestion {
		ing := testIngestion(t)
		ing.Graph.Freeze()
		sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
		ing.Candidates = core.BuildCandidateIndex(ing, sim, core.CandidateIndexOptions{Radius: radius})
		return ing
	}
	snap := New(indexed(8), Config{})
	if !snap.idxActive {
		t.Fatal("an index out to the serving ceiling was not attached")
	}
	for _, k := range []int{5, 3} {
		if _, err := relax(snap, "pyelectasia", "", k); err != nil {
			t.Fatal(err)
		}
	}
	stats := snap.Stats()
	geometry, _ := stats["relaxGeometry"].(map[string]uint64)
	paths, _ := stats["relaxPaths"].(map[string]uint64)
	if geometry["mapped"] != 2 || geometry["fills"]+geometry["hits"]+geometry["bytes"] != 0 || paths["indexed"] != 2 {
		t.Errorf("after two indexed relaxations: relaxGeometry %v, relaxPaths %v; want both mapped and nothing memoised", geometry, paths)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	if idx := New(indexed(2), Config{}).idxActive; idx || !strings.Contains(logged.String(), "radius 2 does not cover serving radius 3") {
		t.Errorf("an index narrower than the serving radius: attached %v, log %q", idx, logged.String())
	}
	// The same columns adopted over a flagged set one concept longer: valid
	// there, foreign to the ingestion that carries it.
	logged.Reset()
	ing := indexed(8)
	nodes := ing.Graph.ConceptIDs()
	foreign, err := core.OpenFlatCandidateIndex(ing.Candidates.FlatData(), append(ing.FlaggedIDs(), nodes[len(nodes)-1]+1), nodes)
	if err != nil {
		t.Fatal(err)
	}
	ing.Candidates = foreign
	if idx := New(ing, Config{}).idxActive; idx || !strings.Contains(logged.String(), "not this ingestion's") {
		t.Errorf("an index over another flagged set: attached %v, log %q", idx, logged.String())
	}
}
