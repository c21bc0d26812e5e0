package medrelax

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/persist"
	"medrelax/internal/router"
	"medrelax/internal/server"
	"medrelax/internal/serving"
	"medrelax/internal/synthkb"
)

// genWorld is one generated world of TestServePathsAgreeOnGeneratedWorlds.
type genWorld struct {
	name              string
	seed              int64
	conditionsPerPair int
	// secondSource mounts the variant vocabulary, so every answer is fused.
	secondSource bool
	// accelerated ingests with the materialized store and the candidate
	// index, so answers come from all three serve paths.
	accelerated bool
	// storeDepth is the store's MaterializeOptions.MaxPerQuery; zero takes the
	// default.
	storeDepth int
}

// genRelax is what the accelerated worlds' stores are built under.
var genRelax = core.RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 6}

// ingest runs Algorithm 1 over the generated world once per process for
// each genWorld; the tests only read what it returns.
func (gw genWorld) ingest(t *testing.T) *core.Ingestion {
	t.Helper()
	ingestedMu.Lock()
	defer ingestedMu.Unlock()
	if ing, ok := ingested[gw]; ok {
		return ing
	}
	w, med, corp, err := medkb.GenerateWorld(gw.seed, synthkb.Config{ConditionsPerPair: gw.conditionsPerPair}, medkb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var opts core.IngestOptions
	if gw.accelerated {
		opts.Materialize = core.MaterializeOptions{Enabled: true, Relax: genRelax, HeadFraction: 0.25, MaxPerQuery: gw.storeDepth}
		opts.CandidateIndex = core.CandidateIndexOptions{Enabled: true, Radius: genRelax.MaxRadius}
	}
	ing, err := core.Ingest(med.Ontology, med.Store, w.Graph, corp, match.NewExact(w.Graph), opts)
	if err != nil {
		t.Fatal(err)
	}
	if gw.secondSource {
		vg, err := synthkb.GenerateVariant(w)
		if err != nil {
			t.Fatal(err)
		}
		ving, err := core.Ingest(med.Ontology, med.Store, vg, corp, match.NewEdit(vg, 0), core.IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ing.Sources = []core.NamedSource{{Name: "variant", Ing: ving}}
	}
	ingested[gw] = ing
	return ing
}

var (
	ingestedMu sync.Mutex
	ingested   = map[genWorld]*core.Ingestion{}
)

// serveQuery is one relax request as every serve path spells it.
type serveQuery struct {
	term, context string
	k             int
	explain       bool
}

func (q serveQuery) String() string {
	return fmt.Sprintf("[%q, %q] k=%d explain=%t", q.term, q.context, q.k, q.explain)
}

func (q serveQuery) path() string {
	v := url.Values{"term": {q.term}, "k": {strconv.Itoa(q.k)}}
	if q.context != "" {
		v.Set("context", q.context)
	}
	if q.explain {
		v.Set("explain", "true")
	}
	return "/relax?" + v.Encode()
}

// drawQueries draws a world's query table: flagged terms under contexts of the
// world (or none), one-edit typos of flagged terms, an unknown term and a
// malformed context, each at k in {1, 10, 1000} with explain off and on.
func drawQueries(rng *rand.Rand, terms []string, contexts []string) []serveQuery {
	type base struct{ term, context string }
	pickContext := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return contexts[rng.Intn(len(contexts))]
	}
	var bases []base
	for i := 0; i < 8; i++ {
		bases = append(bases, base{terms[rng.Intn(len(terms))], pickContext()})
	}
	for i := 0; i < 2; i++ {
		term := terms[rng.Intn(len(terms))]
		cut := 1 + rng.Intn(len(term)-1)
		bases = append(bases, base{term[:cut-1] + "x" + term[cut:], pickContext()})
	}
	bases = append(bases,
		base{"no such finding " + strconv.Itoa(rng.Intn(1000)), pickContext()},
		base{terms[rng.Intn(len(terms))], "not a context!!"})
	var out []serveQuery
	for _, b := range bases {
		for _, k := range []int{1, 10, 1000} {
			for _, explain := range []bool{false, true} {
				out = append(out, serveQuery{b.term, b.context, k, explain})
			}
		}
	}
	return out
}

// served is one answer as a client sees it: the status and the body, without
// the newline the encoder ends a response with.
type served struct {
	status int
	body   []byte
}

func (a served) equal(b served) bool { return a.status == b.status && bytes.Equal(a.body, b.body) }

func serve(h http.Handler, method, path string, body []byte, header ...string) served {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return served{rec.Code, bytes.TrimRight(rec.Body.Bytes(), "\n")}
}

// serveBatch answers queries as POST /relax/batch items, one request per
// explain setting (it is a parameter of the request, not of an item).
func serveBatch(t *testing.T, h http.Handler, queries []serveQuery) []served {
	t.Helper()
	out := make([]served, len(queries))
	for _, explain := range []bool{false, true} {
		var items []map[string]any
		var at []int
		for i, q := range queries {
			if q.explain == explain {
				items = append(items, map[string]any{"term": q.term, "context": q.context, "k": q.k})
				at = append(at, i)
			}
		}
		body, err := json.Marshal(map[string]any{"queries": items})
		if err != nil {
			t.Fatal(err)
		}
		path := "/relax/batch"
		if explain {
			path += "?explain=true"
		}
		resp := serve(h, http.MethodPost, path, body)
		var decoded struct {
			Items []struct {
				Status int             `json:"status"`
				Body   json.RawMessage `json:"body"`
			} `json:"items"`
		}
		if err := json.Unmarshal(resp.body, &decoded); err != nil || resp.status != http.StatusOK || len(decoded.Items) != len(items) {
			t.Fatalf("batch (explain=%t): status %d, %d items for %d queries, decode error %v", explain, resp.status, len(decoded.Items), len(items), err)
		}
		for j, it := range decoded.Items {
			out[at[j]] = served{it.Status, it.Body}
		}
	}
	return out
}

// stripExplain re-encodes a 200 body without its results' explain fields
// (and, on a single-source world, their sources): what is left must be the
// explain=false body.
func stripExplain(t *testing.T, body []byte, keepSources bool) []byte {
	t.Helper()
	var decoded struct {
		Term    string               `json:"term"`
		Context string               `json:"context"`
		Results []server.RelaxResult `json:"results"`
	}
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("decoding explain body: %v", err)
	}
	for i := range decoded.Results {
		if p := decoded.Results[i].Provenance; p != nil {
			p.Explain = nil
			if !keepSources {
				p.Sources = nil
			}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"term": decoded.Term, "context": decoded.Context, "results": decoded.Results}); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimRight(buf.Bytes(), "\n")
}

// TestServePathsAgreeOnGeneratedWorlds holds every way a relax request can be
// answered to the same bytes, status code included, on worlds and queries
// drawn from seeds rather than on the pinned golden queries: a snapshot
// assembled over the ingestion, the same ingestion saved flat and loaded
// (adopted resolver, mapped columns), batch items, the serving engine on a
// miss, on a hit and with the cache bypassed, the same engine behind a
// tenant's /t/{name}/ route, and the router over two replicas. An explained answer without its explain fields is the plain
// answer, and a snapshot answers the same whatever it answered before.
func TestServePathsAgreeOnGeneratedWorlds(t *testing.T) {
	worlds := []genWorld{
		{name: "accelerated", seed: 101, conditionsPerPair: 1, accelerated: true},
		{name: "two-source", seed: 202, conditionsPerPair: 1, secondSource: true},
		{name: "plain", seed: 303, conditionsPerPair: 2},
	}
	if testing.Short() {
		worlds = worlds[:1]
	}
	for _, gw := range worlds {
		t.Run(gw.name, func(t *testing.T) {
			ing := gw.ingest(t)
			built := engine.New(ing, engine.Config{})
			contexts := make([]string, len(ing.Contexts))
			for i, c := range ing.Contexts {
				contexts[i] = c.String()
			}
			queries := drawQueries(rand.New(rand.NewSource(gw.seed)), built.Terms(1<<20), contexts)

			// (1) The snapshot assembled over the ingestion is the reference.
			builtAPI := server.New(built).Handler()
			want := make([]served, len(queries))
			statuses := map[int]int{}
			for i, q := range queries {
				want[i] = serve(builtAPI, http.MethodGet, q.path(), nil)
				statuses[want[i].status]++
			}
			for _, status := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound} {
				if statuses[status] == 0 {
					t.Errorf("no query answered %d (statuses %v): the table does not cover it", status, statuses)
				}
			}
			agree := func(path string, got []served) {
				t.Helper()
				for i, q := range queries {
					if !got[i].equal(want[i]) {
						t.Errorf("%s: %s: status %d, body %.200s\nwant status %d, body %.200s", path, q, got[i].status, got[i].body, want[i].status, want[i].body)
					}
				}
			}
			gets := func(h http.Handler, header ...string) []served {
				got := make([]served, len(queries))
				for i, q := range queries {
					got[i] = serve(h, http.MethodGet, q.path(), nil, header...)
				}
				return got
			}

			// (2) The same ingestion saved flat and loaded.
			bundle := filepath.Join(t.TempDir(), "world.flat")
			if err := persist.SaveFileAtomic(bundle, ing, persist.FormatFlat); err != nil {
				t.Fatal(err)
			}
			loaded, err := engine.LoadSnapshot(bundle)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			loadedAPI := server.New(loaded).Handler()
			agree("loaded flat bundle", gets(loadedAPI))
			if gw.accelerated {
				if _, mat, idx := loaded.Relaxer().PathCounts(); mat == 0 || idx == 0 {
					t.Errorf("loaded flat bundle: %d answers from the materialized store, %d from the candidate index: the table does not cover both", mat, idx)
				}
			}

			// (3) Batch items, over both snapshots.
			agree("batch over the built snapshot", serveBatch(t, builtAPI, queries))
			agree("batch over the loaded snapshot", serveBatch(t, loadedAPI, queries))

			// (4) The serving engine: a miss, a hit, the cache bypassed, and a
			// batch that finds every item cached.
			opts := serving.DefaultOptions()
			opts.RelaxTimeout = 30 * time.Second // the race detector must not time a k=1000 explain out
			eng := serving.NewEngine(loaded, opts)
			servingAPI := eng.Handler(server.New(eng).Handler())
			agree("serving engine, miss", gets(servingAPI))
			agree("serving engine, hit", gets(servingAPI))
			if hits, _, _, _ := eng.CacheStats(); hits == 0 {
				t.Error("serving engine: the second pass hit nothing")
			}
			agree("serving engine, no-store", gets(servingAPI, "Cache-Control", "no-store"))
			agree("serving engine, cached batch", serveBatch(t, servingAPI, queries))
			fresh := serving.NewEngine(loaded, opts)
			agree("serving engine, uncached batch", serveBatch(t, fresh.Handler(server.New(fresh).Handler()), queries))
			// The same stack mounted as a tenant, every query asked as
			// /t/alpha/…: a miss, a hit, and a batch.
			tenants := serving.NewTenantServer()
			tenantEng := serving.NewEngine(loaded, opts)
			tenants.Add("alpha", tenantEng, server.New(tenantEng).Handler())
			route := tenants.Handler()
			tenantAPI := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				r.URL.Path = "/t/alpha" + r.URL.Path
				route.ServeHTTP(w, r)
			})
			agree("tenant route, miss", gets(tenantAPI))
			agree("tenant route, hit", gets(tenantAPI))
			if hits, _, _, _ := tenantEng.CacheStats(); hits == 0 {
				t.Error("tenant route: the second pass hit nothing")
			}
			agree("tenant route, batch", serveBatch(t, tenantAPI, queries))

			// (5) The router over two replicas.
			ropts := router.DefaultOptions()
			for i := 0; i < 2; i++ {
				replica := serving.NewEngine(loaded, opts)
				srv := httptest.NewServer(replica.Handler(server.New(replica).Handler()))
				defer srv.Close()
				ropts.Replicas = append(ropts.Replicas, strings.TrimPrefix(srv.URL, "http://"))
			}
			rt := router.New(ropts)
			rt.Start()
			defer rt.Stop()
			agree("router", gets(rt.Handler()))
			agree("router, scattered batch", serveBatch(t, rt.Handler(), queries))

			// An explained answer minus its explain fields is the plain one.
			plain := map[serveQuery]served{}
			for i, q := range queries {
				if !q.explain {
					plain[q] = want[i]
				}
			}
			for i, q := range queries {
				if !q.explain {
					continue
				}
				q.explain = false
				p := plain[q]
				if want[i].status != p.status {
					t.Errorf("%s: status %d explained, %d plain", q, want[i].status, p.status)
				} else if p.status != http.StatusOK {
					if !bytes.Equal(want[i].body, p.body) {
						t.Errorf("%s: error body %s explained, %s plain", q, want[i].body, p.body)
					}
				} else if got := stripExplain(t, want[i].body, gw.secondSource); !bytes.Equal(got, p.body) {
					t.Errorf("%s: explained body without explain fields %.200s\nplain body %.200s", q, got, p.body)
				}
			}

			// History does not show: a fresh snapshot asked in reverse order
			// answers each query as the one that had served all the others.
			cold := server.New(engine.New(ing, engine.Config{})).Handler()
			for i := len(queries) - 1; i >= 0; i-- {
				if got := serve(cold, http.MethodGet, queries[i].path(), nil); !got.equal(want[i]) {
					t.Errorf("fresh snapshot, reverse order: %s: status %d, body %.200s\nwant status %d, body %.200s", queries[i], got.status, got.body, want[i].status, want[i].body)
				}
			}
		})
	}
}

// TestDeepStoreServesUnderShallowDefaults is the compatibility gate of the
// store's default depth: a bundle whose store was built at the earlier depth
// of 256 opens under this tree, attaches, and answers every k the same bytes
// as a bundle built at the default depth and as a snapshot with no store.
// Where the default store is too shallow to prove a k that the deep one
// proves, the answer came another way and says so — in the response's path
// and in medrelax_relax_materialized_truncated_total — and is the same bytes.
func TestDeepStoreServesUnderShallowDefaults(t *testing.T) {
	gw := genWorld{name: "accelerated", seed: 101, conditionsPerPair: 1, accelerated: true}
	live := server.New(engine.New(genWorld{seed: gw.seed, conditionsPerPair: 1}.ingest(t), engine.Config{Relax: genRelax})).Handler()

	type stack struct {
		built *core.Ingestion  // what the bundle was saved from
		snap  *engine.Snapshot // the bundle, loaded
		api   http.Handler     // the serving engine over snap, scraped for /metrics
	}
	open := func(depth int) stack {
		t.Helper()
		gw.storeDepth = depth
		ing := gw.ingest(t)
		deepest := 0
		d := ing.Materialized.FlatData()
		for r := range d.Complete {
			deepest = max(deepest, int(d.CandOff[r+1]-d.CandOff[r]))
		}
		if want := max(depth, 64); deepest != want { // the default, spelled out: a drift fails here
			t.Fatalf("store built with MaxPerQuery %d: deepest entry holds %d candidates, want %d", depth, deepest, want)
		}
		bundle := filepath.Join(t.TempDir(), "world.flat")
		if err := persist.SaveFileAtomic(bundle, ing, persist.FormatFlat); err != nil {
			t.Fatal(err)
		}
		snap, err := engine.LoadSnapshot(bundle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { snap.Close() })
		if n, _ := snap.Stats()["materializedEntries"].(int); n != len(d.Concepts) {
			t.Fatalf("bundle with a depth-%d store: %d of %d entries attached", deepest, n, len(d.Concepts))
		}
		eng := serving.NewEngine(snap, serving.DefaultOptions())
		return stack{ing, snap, eng.Handler(server.New(eng).Handler())}
	}
	deep, shallow := open(256), open(0)
	metric := func(s stack, name string) int {
		t.Helper()
		for _, line := range strings.Split(string(serve(s.api, http.MethodGet, "/metrics", nil).body), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.Atoi(rest)
				if err != nil {
					t.Fatalf("/metrics: %q", line)
				}
				return n
			}
		}
		t.Fatalf("/metrics has no %s", name)
		return 0
	}

	// Head concepts by their own names, under no context and under two.
	ing := shallow.built
	var terms []string
	for _, id := range slices.Compact(slices.Clone(ing.Materialized.FlatData().Concepts))[:6] {
		c, _ := ing.Graph.Concept(id)
		terms = append(terms, c.Name)
	}
	contexts := []string{"", ing.Contexts[0].String(), ing.Contexts[len(ing.Contexts)/2].String()}
	paths := map[bool]int{} // by whether the two stacks named the same path
	for _, k := range []int{1, 10, 50, 100, 1000} {
		for _, term := range terms {
			for _, qctx := range contexts {
				q := serveQuery{term: term, context: qctx, k: k}
				want := serve(live, http.MethodGet, q.path(), nil)
				if want.status != http.StatusOK {
					t.Fatalf("%s: live status %d, body %s", q, want.status, want.body)
				}
				for name, s := range map[string]stack{"deep": deep, "shallow": shallow} {
					if got := serve(s.api, http.MethodGet, q.path(), nil, "Cache-Control", "no-store"); !got.equal(want) {
						t.Errorf("%s: %s store: status %d, body %.200s\nlive status %d, body %.200s", q, name, got.status, got.body, want.status, want.body)
					}
				}
				req := engine.Request{Term: term, Context: qctx, K: k}
				dr, sr := deep.snap.RelaxBatch(context.Background(), []engine.Request{req})[0], shallow.snap.RelaxBatch(context.Background(), []engine.Request{req})[0]
				if k <= 50 && (dr.Path != core.PathMaterialized || sr.Path != core.PathMaterialized || sr.Decline != "") {
					t.Errorf("%s: answered by %s (deep) and %s (shallow, decline %q); both stores hold the entry and k <= 50", q, dr.Path.MetricName(), sr.Path.MetricName(), sr.Decline)
				}
				if (sr.Path != core.PathMaterialized) != (sr.Decline == core.DeclineTruncated) {
					t.Errorf("%s: shallow store: path %s with decline %q", q, sr.Path.MetricName(), sr.Decline)
				}
				if k > 50 {
					paths[dr.Path == sr.Path]++
				}
			}
		}
	}
	if paths[false] == 0 {
		t.Errorf("no k past 50 was served by the deep store and declined by the shallow one (%d agreed): the table does not cover the difference", paths[true])
	}
	// The HTTP pass through each serving engine counted what the direct pass
	// above saw: per stack one decline per request it did not serve.
	for name, s := range map[string]stack{"deep": deep, "shallow": shallow} {
		hits, truncated := metric(s, "medrelax_relax_materialized_hit_total"), metric(s, "medrelax_relax_materialized_truncated_total")
		if total := 5 * len(terms) * len(contexts); hits+truncated != total || hits == 0 || truncated == 0 {
			t.Errorf("%s store: %d materialized hits and %d truncated declines over %d requests that all name an entry", name, hits, truncated, total)
		}
		if got, _ := s.snap.Stats()["relaxPaths"].(map[string]uint64); got["materializedTruncated"] != 2*uint64(truncated) {
			t.Errorf("%s store: snapshot counted %d truncated declines over two passes, the serving engine %d over one", name, got["materializedTruncated"], truncated)
		}
	}
	if d, s := metric(deep, "medrelax_relax_materialized_truncated_total"), metric(shallow, "medrelax_relax_materialized_truncated_total"); s <= d {
		t.Errorf("truncated declines: %d by the deep store, %d by the shallow one", d, s)
	}
}
