package medrelax

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"sync"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/eval"
	"medrelax/internal/server"
	"medrelax/internal/serving"
)

// Every two-source test shares one federated system, derived from
// sharedSystem by the step Build runs for Config.SecondSource.
var (
	twoSrcOnce sync.Once
	twoSrcSys  *System
	twoSrcErr  error
)

func twoSourceSystem(tb testing.TB) *System {
	tb.Helper()
	sys := sharedSystem(tb)
	twoSrcOnce.Do(func() {
		twoSrcSys, twoSrcErr = sys.withSecondSource()
	})
	if twoSrcErr != nil {
		tb.Fatalf("Build(SecondSource): %v", twoSrcErr)
	}
	return twoSrcSys
}

// relaxNames asks the system's snapshot one request without a deadline.
// provenanceOf is a result's attribution: the zero Provenance on a plain
// answer, which carries none.
func provenanceOf(r engine.RelaxResult) engine.Provenance {
	if r.Provenance == nil {
		return engine.Provenance{}
	}
	return *r.Provenance
}

func relaxNames(sys *System, req engine.Request) ([]engine.RelaxResult, error) {
	resp := sys.Engine.RelaxBatch(context.Background(), []engine.Request{req})[0]
	return resp.Results, resp.Err
}

// relaxAgrees fails t unless System.Relax answers req exactly as the snapshot
// does, sources included: the facade is a batch of one on the snapshot.
func relaxAgrees(t *testing.T, sys *System, req engine.Request, want []engine.RelaxResult, wantErr error) {
	t.Helper()
	got, err := sys.Relax(req.Term, req.Context, req.K)
	if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Errorf("term %q: System.Relax = %v, %v; the snapshot answers %v, %v", req.Term, got, err, want, wantErr)
	}
}

// oovLatentTerms returns latent surface variants the primary's served mapper
// cannot place — out-of-vocabulary for the primary source by construction
// (they were withheld from its synonym index, and the served EDIT, exact
// match then edit distance, misses them). On a two-source system the engine's
// mapper is the primary's.
func oovLatentTerms(sys *System) []string {
	var oov []string
	for _, variants := range sys.World.Latent {
		for _, term := range variants {
			if _, ok := sys.Engine.Mapper().Map(term); !ok {
				oov = append(oov, term)
			}
		}
	}
	slices.Sort(oov)
	return oov
}

func TestTwoSourceStats(t *testing.T) {
	sys := twoSourceSystem(t)
	stats := sys.Engine.Stats()
	if got := stats["sourceCount"]; got != 2 {
		t.Fatalf("sourceCount = %v, want 2", got)
	}
	sources, ok := stats["sources"].(map[string]any)
	if !ok {
		t.Fatalf("stats lacks per-source map: %T", stats["sources"])
	}
	for _, name := range []string{core.PrimarySourceName, "variant"} {
		arm, ok := sources[name].(map[string]any)
		if !ok {
			t.Fatalf("stats.sources lacks %q", name)
		}
		if n := arm["flaggedConcepts"].(int); n <= 0 {
			t.Errorf("source %q has %d flagged concepts; it cannot answer anything", name, n)
		}
	}
}

// TestTwoSourceResolvesOOV is the federation coverage scenario: query terms
// the primary source alone cannot map (latent paraphrases) must be answered
// by the two-source snapshot through the variant vocabulary, with the
// results attributed to it.
func TestTwoSourceResolvesOOV(t *testing.T) {
	sys := twoSourceSystem(t)
	oov := oovLatentTerms(sys)
	if len(oov) == 0 {
		t.Fatal("no latent variant is OOV for the primary; the coverage scenario has nothing to show")
	}
	t.Logf("%d latent variants are OOV for the primary mapper", len(oov))

	answered := 0
	for _, term := range oov {
		req := engine.Request{Term: term, K: 5}
		results, err := relaxNames(sys, req)
		relaxAgrees(t, sys, req, results, err)
		if err != nil {
			// Not every paraphrase made it into the variant vocabulary
			// (collisions are skipped); what matters is that some do.
			continue
		}
		if len(results) == 0 {
			t.Errorf("term %q: mapped but zero results", term)
			continue
		}
		answered++
		instances := 0
		for _, r := range results {
			if !slices.Contains(provenanceOf(r).Sources, "variant") {
				t.Errorf("term %q: result %q sources = %v, want variant attribution", term, r.Concept, provenanceOf(r).Sources)
			}
			if slices.Contains(provenanceOf(r).Sources, core.PrimarySourceName) {
				t.Errorf("term %q: result %q claims primary attribution, but the primary cannot map the term", term, r.Concept)
			}
			instances += len(r.Instances)
		}
		if instances == 0 {
			t.Errorf("term %q: results carry no KB instances", term)
		}
		// Determinism: the fused rule must reproduce byte-for-byte.
		again, err := relaxNames(sys, engine.Request{Term: term, K: 5})
		if err != nil || !reflect.DeepEqual(results, again) {
			t.Errorf("term %q: fused answer not deterministic (err %v)", term, err)
		}
	}
	if answered == 0 {
		t.Fatalf("none of %d OOV terms was answered by the variant source", len(oov))
	}
	t.Logf("%d/%d OOV terms answered via the variant source", answered, len(oov))
}

// TestTwoSourcePrimaryCoverageKept pins the other direction of fusion:
// mounting a secondary must not lose the primary's coverage, and answers the
// primary contributes carry its attribution.
func TestTwoSourcePrimaryCoverageKept(t *testing.T) {
	sys := twoSourceSystem(t)
	queries := eval.SelectQueries(sys.Med, sys.Oracle, 10)
	if len(queries) == 0 {
		t.Fatal("no queries selected")
	}
	for _, q := range queries {
		qctx := ""
		if q.Ctx != nil {
			qctx = q.Ctx.String()
		}
		req := engine.Request{Term: q.Term, Context: qctx, K: 10}
		results, err := relaxNames(sys, req)
		if err != nil {
			t.Fatalf("term %q: %v", q.Term, err)
		}
		relaxAgrees(t, sys, req, results, err)
		if len(results) == 0 {
			t.Fatalf("term %q: no results from the fused path", q.Term)
		}
		fromPrimary := false
		for _, r := range results {
			if len(provenanceOf(r).Sources) == 0 {
				t.Fatalf("term %q: result %q has no source attribution on a multi-source snapshot", q.Term, r.Concept)
			}
			if slices.Contains(provenanceOf(r).Sources, core.PrimarySourceName) {
				fromPrimary = true
			}
		}
		if !fromPrimary {
			t.Errorf("term %q: no result attributes the primary source", q.Term)
		}
	}
}

// TestTwoSourceExplain exercises explain mode on the fused path: the
// relaxation path must run in the source that won the result.
func TestTwoSourceExplain(t *testing.T) {
	sys := twoSourceSystem(t)
	oov := oovLatentTerms(sys)
	var explained *engine.Explain
	for _, term := range oov {
		results, err := relaxNames(sys, engine.Request{Term: term, K: 5, Explain: true})
		if err != nil || len(results) == 0 {
			continue
		}
		for _, r := range results {
			if provenanceOf(r).Explain == nil {
				continue
			}
			explained = provenanceOf(r).Explain
			if provenanceOf(r).Explain.Source != "variant" {
				t.Errorf("term %q: explain source %q, want variant", term, provenanceOf(r).Explain.Source)
			}
			if provenanceOf(r).Explain.PathWeight <= 0 || provenanceOf(r).Explain.PathWeight > 1 {
				t.Errorf("term %q: path weight %v out of (0, 1]", term, provenanceOf(r).Explain.PathWeight)
			}
			if len(provenanceOf(r).Explain.Edges) == 0 {
				t.Errorf("term %q: explained result %q has an empty path but is not the query itself", term, r.Concept)
			}
			for _, e := range provenanceOf(r).Explain.Edges {
				if e.Direction != "generalization" && e.Direction != "specialization" {
					t.Errorf("edge %v has direction %q", e, e.Direction)
				}
				if e.Dist < 1 {
					t.Errorf("edge %v has distance %d < 1", e, e.Dist)
				}
			}
		}
		if explained != nil {
			break
		}
	}
	if explained == nil {
		t.Fatal("no OOV answer carried an explanation")
	}

	// Explain off → the new fields stay absent even on the fused path's
	// multi-source results (attribution yes, path no).
	for _, term := range oov {
		results, err := relaxNames(sys, engine.Request{Term: term, K: 5})
		if err != nil {
			continue
		}
		for _, r := range results {
			if provenanceOf(r).Explain != nil {
				t.Fatalf("term %q: explain attached without being requested", term)
			}
		}
		break
	}
}

// TestExplainHTTPByteIdentity pins the defining constraint at the HTTP
// layer over the full serving stack (cache, admission control): explain=true
// enriches the response, and explain=false responses — before, after, and
// interleaved with explain traffic — stay byte-identical, i.e. the explain
// variant neither changes the classic wire shape nor poisons the cache.
func TestExplainHTTPByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("boots an HTTP stack")
	}
	sys := sharedSystem(t)
	eng := serving.NewEngine(sys.Engine, serving.DefaultOptions())
	srv := httptest.NewServer(eng.Handler(server.New(eng).Handler()))
	defer srv.Close()

	queries := eval.SelectQueries(sys.Med, sys.Oracle, 5)
	if len(queries) == 0 {
		t.Fatal("no queries selected")
	}
	type relaxResponse struct {
		Term    string               `json:"term"`
		Context string               `json:"context"`
		Results []engine.RelaxResult `json:"results"`
	}
	for _, q := range queries {
		v := url.Values{"term": {q.Term}, "k": {"10"}}
		if q.Ctx != nil {
			v.Set("context", q.Ctx.String())
		}
		plainPath := "/relax?" + v.Encode()
		v.Set("explain", "true")
		explainPath := "/relax?" + v.Encode()

		status, before := httpGet(t, srv.URL, plainPath)
		if status != 200 {
			t.Fatalf("term %q: status %d: %s", q.Term, status, before)
		}
		var plain relaxResponse
		if err := json.Unmarshal(before, &plain); err != nil {
			t.Fatal(err)
		}
		for _, r := range plain.Results {
			if r.Provenance != nil {
				t.Fatalf("term %q: explain=false response carries attribution fields: %s", q.Term, before)
			}
		}

		status, exBody := httpGet(t, srv.URL, explainPath)
		if status != 200 {
			t.Fatalf("term %q explain: status %d: %s", q.Term, status, exBody)
		}
		var ex relaxResponse
		if err := json.Unmarshal(exBody, &ex); err != nil {
			t.Fatal(err)
		}
		if len(ex.Results) != len(plain.Results) {
			t.Fatalf("term %q: explain changed the result set: %d vs %d", q.Term, len(ex.Results), len(plain.Results))
		}
		sawPath := false
		for i, r := range ex.Results {
			if !slices.Equal(provenanceOf(r).Sources, []string{core.PrimarySourceName}) {
				t.Fatalf("term %q: explain result sources = %v, want [primary]", q.Term, provenanceOf(r).Sources)
			}
			if provenanceOf(r).Explain != nil {
				sawPath = true
				if provenanceOf(r).Explain.Source != core.PrimarySourceName {
					t.Fatalf("term %q: explain path source %q", q.Term, provenanceOf(r).Explain.Source)
				}
			}
			// Ranked surface stays identical; explain only annotates.
			if r.Concept != plain.Results[i].Concept || r.Score != plain.Results[i].Score {
				t.Fatalf("term %q: explain reordered results", q.Term)
			}
		}
		if !sawPath {
			t.Fatalf("term %q: no explained result carries a relaxation path", q.Term)
		}

		// Cached explain variant answers identically.
		_, exAgain := httpGet(t, srv.URL, explainPath)
		if !bytes.Equal(exBody, exAgain) {
			t.Fatalf("term %q: explain=true response unstable across cache hit", q.Term)
		}

		// And the classic response is still byte-identical — the explain
		// variant lives under its own cache key.
		status, after := httpGet(t, srv.URL, plainPath)
		if status != 200 || !bytes.Equal(before, after) {
			t.Fatalf("term %q: explain traffic changed the explain=false bytes:\n before: %s\n after:  %s",
				q.Term, before, after)
		}
	}

	// Batch path: same contract through POST /relax/batch?explain=true.
	items := make([]map[string]any, 0, len(queries))
	for _, q := range queries {
		it := map[string]any{"term": q.Term, "k": 10}
		if q.Ctx != nil {
			it["context"] = q.Ctx.String()
		}
		items = append(items, it)
	}
	body, err := json.Marshal(map[string]any{"queries": items})
	if err != nil {
		t.Fatal(err)
	}
	status, plainBatch := httpPost(t, srv.URL, "/relax/batch", body)
	if status != 200 {
		t.Fatalf("batch status %d: %s", status, plainBatch)
	}
	status, exBatch := httpPost(t, srv.URL, "/relax/batch?explain=true", body)
	if status != 200 {
		t.Fatalf("explain batch status %d: %s", status, exBatch)
	}
	if !bytes.Contains(exBatch, []byte(`"explain"`)) {
		t.Fatalf("explain batch carries no explain fields: %s", exBatch)
	}
	status, plainBatchAfter := httpPost(t, srv.URL, "/relax/batch", body)
	if status != 200 || !bytes.Equal(plainBatch, plainBatchAfter) {
		t.Fatalf("batch explain traffic changed the explain=false bytes:\n before: %s\n after:  %s",
			plainBatch, plainBatchAfter)
	}
}

// TestRouterExplainPassthrough pins explain mode across the distributed
// tier: explain responses answered through kbrouter are byte-identical to a
// direct replica, for both the proxy and the scatter-gather path, and
// explain=false byte-identity survives interleaved explain traffic.
func TestRouterExplainPassthrough(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four HTTP stacks")
	}
	sys := sharedSystem(t)
	replicas := bootReplicas(t, sys, 3)
	rt := bootRouter(t, replicas)
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()
	direct := "http://" + replicas[0]

	queries := eval.SelectQueries(sys.Med, sys.Oracle, 10)
	if len(queries) == 0 {
		t.Fatal("no queries selected")
	}
	for _, q := range queries {
		v := url.Values{"term": {q.Term}, "k": {"10"}, "explain": {"true"}}
		if q.Ctx != nil {
			v.Set("context", q.Ctx.String())
		}
		path := "/relax?" + v.Encode()
		dStatus, dBody := httpGet(t, direct, path)
		rStatus, rBody := httpGet(t, routerSrv.URL, path)
		if dStatus != rStatus || !bytes.Equal(dBody, rBody) {
			t.Fatalf("term %q: routed explain response diverged (status %d vs %d):\n direct: %s\n router: %s",
				q.Term, dStatus, rStatus, dBody, rBody)
		}
		if !bytes.Contains(rBody, []byte(`"explain"`)) || !bytes.Contains(rBody, []byte(`"sources"`)) {
			t.Fatalf("term %q: routed explain response lacks path or attribution: %s", q.Term, rBody)
		}

		v.Del("explain")
		plainPath := "/relax?" + v.Encode()
		dStatus, dBody = httpGet(t, direct, plainPath)
		rStatus, rBody = httpGet(t, routerSrv.URL, plainPath)
		if dStatus != rStatus || !bytes.Equal(dBody, rBody) {
			t.Fatalf("term %q: explain=false diverged through the router after explain traffic", q.Term)
		}
		if bytes.Contains(rBody, []byte(`"explain"`)) {
			t.Fatalf("term %q: explain=false routed response leaks explain fields: %s", q.Term, rBody)
		}
	}

	// Scatter-gather: explain survives the batch split/merge verbatim.
	type item struct {
		Term    string `json:"term"`
		Context string `json:"context,omitempty"`
		K       int    `json:"k,omitempty"`
	}
	items := make([]item, 0, len(queries))
	for _, q := range queries {
		it := item{Term: q.Term, K: 10}
		if q.Ctx != nil {
			it.Context = q.Ctx.String()
		}
		items = append(items, it)
	}
	body, err := json.Marshal(map[string]any{"queries": items})
	if err != nil {
		t.Fatal(err)
	}
	dStatus, dBody := httpPost(t, direct, "/relax/batch?explain=true", body)
	rStatus, rBody := httpPost(t, routerSrv.URL, "/relax/batch?explain=true", body)
	if dStatus != 200 || rStatus != 200 || !bytes.Equal(dBody, rBody) {
		t.Fatalf("scatter-gather explain batch diverged (status %d vs %d):\n direct: %s\n router: %s",
			dStatus, rStatus, dBody, rBody)
	}
	if !bytes.Contains(rBody, []byte(`"explain"`)) {
		t.Fatalf("routed explain batch carries no explain fields: %s", rBody)
	}
}
