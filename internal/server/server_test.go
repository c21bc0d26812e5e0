package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/corpus"
	"medrelax/internal/dialog"
	"medrelax/internal/eks"
	"medrelax/internal/engine"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
)

// testBackend builds a small world (the dialog package's Figure 7/8 shape)
// behind an engine.Snapshot.
func testBackend(t *testing.T) *engine.Snapshot {
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
	var snap *engine.Snapshot
	snap = engine.New(ing, engine.Config{
		Conversation: func() (*dialog.Conversation, error) {
			examples := dialog.GenerateTrainingExamples(o, store, 1, 8)
			classifier, err := dialog.TrainIntentClassifier(examples)
			if err != nil {
				return nil, err
			}
			extractor := dialog.NewMentionExtractor(store, g.NameKeys())
			return dialog.NewConversation(store, o, classifier, extractor, snap.Relaxer(), ing), nil
		},
	})
	return snap
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := New(testBackend(t))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Errorf("healthz = %v", out)
	}
}

func TestStats(t *testing.T) {
	ts := newTestServer(t)
	out := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if out["eksConcepts"].(float64) != 4 {
		t.Errorf("stats = %v", out)
	}
}

func TestRelaxEndpoint(t *testing.T) {
	ts := newTestServer(t)
	out := getJSON(t, ts.URL+"/relax?term=pyelectasia&k=5", http.StatusOK)
	results := out["results"].([]any)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	first := results[0].(map[string]any)
	if first["concept"] != "kidney disease" {
		t.Errorf("first concept = %v", first["concept"])
	}
	if first["score"].(float64) <= 0 {
		t.Errorf("score = %v", first["score"])
	}
}

func TestRelaxEndpointErrors(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/relax", http.StatusBadRequest)
	getJSON(t, ts.URL+"/relax?term=x&k=0", http.StatusBadRequest)
	getJSON(t, ts.URL+"/relax?term=x&k=nope", http.StatusBadRequest)
	getJSON(t, ts.URL+"/relax?term=zzqx+unknown", http.StatusNotFound)
	getJSON(t, ts.URL+"/relax?term=fever&context=bad-ctx-shape-x-y", http.StatusBadRequest)
}

func postChat(t *testing.T, url string, body string) (int, ChatResponse) {
	t.Helper()
	resp, err := http.Post(url+"/chat", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ChatResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func TestChatFlow(t *testing.T) {
	ts := newTestServer(t)
	// Unknown term: suggestions offered.
	code, out := postChat(t, ts.URL, `{"session":"s1","text":"what drugs treat pyelectasia"}`)
	if code != http.StatusOK || !out.Understood || len(out.Suggestions) == 0 {
		t.Fatalf("chat 1 = %d %+v", code, out)
	}
	// Pick the first suggestion; session state must persist across requests.
	code, out = postChat(t, ts.URL, `{"session":"s1","text":"1"}`)
	if code != http.StatusOK || len(out.Answers) == 0 || out.Answers[0] != "lisinopril" {
		t.Fatalf("chat 2 = %d %+v", code, out)
	}
	// A different session has no pending suggestions.
	code, out = postChat(t, ts.URL, `{"session":"s2","text":"1"}`)
	if code != http.StatusOK || out.Understood {
		t.Fatalf("chat other-session = %d %+v", code, out)
	}
	// Reset clears state.
	code, _ = postChat(t, ts.URL, `{"session":"s1","reset":true}`)
	if code != http.StatusOK {
		t.Fatalf("reset = %d", code)
	}
}

func TestChatValidation(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := postChat(t, ts.URL, `not json`); code != http.StatusBadRequest {
		t.Errorf("bad json = %d", code)
	}
	if code, _ := postChat(t, ts.URL, `{"text":"hi"}`); code != http.StatusBadRequest {
		t.Errorf("missing session = %d", code)
	}
	if code, _ := postChat(t, ts.URL, `{"session":"s"}`); code != http.StatusBadRequest {
		t.Errorf("missing text = %d", code)
	}
}

func TestSessionTableEvictsIdle(t *testing.T) {
	srv := New(testBackend(t))
	srv.MaxSessions = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		code, _ := postChat(t, ts.URL, fmt.Sprintf(`{"session":"s%d","text":"what drugs treat fever"}`, i))
		if code != http.StatusOK {
			t.Fatalf("session %d = %d", i, code)
		}
	}
	// A full table evicts the longest-idle session instead of rejecting.
	code, _ := postChat(t, ts.URL, `{"session":"overflow","text":"what drugs treat fever"}`)
	if code != http.StatusOK {
		t.Errorf("overflow session = %d, want 200 via idle eviction", code)
	}
	srv.mu.Lock()
	_, evicted := srv.sessions["s0"]
	_, kept := srv.sessions["overflow"]
	n := len(srv.sessions)
	srv.mu.Unlock()
	if evicted {
		t.Error("oldest session s0 still resident after eviction")
	}
	if !kept || n != 2 {
		t.Errorf("sessions = %d (overflow present: %v), want table back at cap with new session", n, kept)
	}
	// The evicted name starts a fresh conversation transparently.
	if code, _ := postChat(t, ts.URL, `{"session":"s0","text":"what drugs treat fever"}`); code != http.StatusOK {
		t.Errorf("recreated evicted session = %d, want 200", code)
	}
}

func TestSessionTableBusyBackstop(t *testing.T) {
	srv := New(testBackend(t))
	srv.MaxSessions = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _ := postChat(t, ts.URL, `{"session":"busy","text":"what drugs treat fever"}`); code != http.StatusOK {
		t.Fatal("seed session failed")
	}
	// Hold the only session's lock to simulate a turn in progress: the
	// eviction scan must skip it and the new session must be rejected.
	srv.mu.Lock()
	sess := srv.sessions["busy"]
	srv.mu.Unlock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	code, _ := postChat(t, ts.URL, `{"session":"other","text":"hello"}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("all-busy overflow = %d, want 503 backstop", code)
	}
}

func TestRelaxEndpointConcurrent(t *testing.T) {
	ts := newTestServer(t)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			term := "pyelectasia"
			if i%2 == 0 {
				term = "fever"
			}
			resp, err := http.Get(ts.URL + "/relax?term=" + term + "&k=3")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
