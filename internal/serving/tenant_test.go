package serving

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"medrelax/internal/server"
	"medrelax/internal/serving/metrics"
)

// newTenantStack mounts two tenants, "alpha" (default) and "beta", over
// one shared metrics registry — the production two-bundle composition in
// cmd/kbserver.
func newTenantStack(t *testing.T, opts Options) (*TenantServer, *httptest.Server, *fakeBackend, *fakeBackend) {
	t.Helper()
	shared := metrics.NewRegistry()
	ts := NewTenantServer()
	fa := &fakeBackend{label: "alpha"}
	fb := &fakeBackend{label: "beta"}
	for name, b := range map[string]*fakeBackend{"alpha": fa, "beta": fb} {
		o := opts
		o.Metrics = shared
		o.Tenant = name
		e := NewEngine(b, o)
		ts.Add(name, e, server.New(e).Handler())
	}
	// Map iteration above makes Add order random; pin the default.
	ts.def = "alpha"
	hs := httptest.NewServer(ts.Handler())
	t.Cleanup(hs.Close)
	return ts, hs, fa, fb
}

func TestTenantRouting(t *testing.T) {
	_, hs, _, _ := newTenantStack(t, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	cases := []struct {
		name        string
		path        string
		header      string
		wantStatus  int
		wantConcept string // label baked into the fake backend's results
	}{
		{"bare path hits default tenant", "/relax?term=x&k=1", "", 200, "alpha:x"},
		{"path prefix selects tenant", "/t/beta/relax?term=x&k=1", "", 200, "beta:x"},
		{"header selects tenant", "/relax?term=x&k=1", "beta", 200, "beta:x"},
		{"path wins over header", "/t/alpha/relax?term=x&k=1", "beta", 200, "alpha:x"},
		{"unknown tenant in path", "/t/gamma/relax?term=x&k=1", "", 404, ""},
		{"unknown tenant in header", "/relax?term=x&k=1", "gamma", 404, ""},
		{"empty tenant segment", "/t//relax?term=x", "", 404, ""},
		{"tenant healthz", "/t/beta/healthz", "", 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest("GET", hs.URL+tc.path, nil)
			if tc.header != "" {
				req.Header.Set(TenantHeader, tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantConcept == "" {
				return
			}
			var out struct {
				Results []server.RelaxResult `json:"results"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if len(out.Results) == 0 || out.Results[0].Concept != tc.wantConcept {
				t.Errorf("results = %+v, want concept %q", out.Results, tc.wantConcept)
			}
		})
	}
}

// TestTenantCacheIsolation drives the same query into both tenants
// concurrently and checks each tenant's cache answers only with its own
// backend's results, with hits accounted per tenant.
func TestTenantCacheIsolation(t *testing.T) {
	ts, hs, fa, fb := newTenantStack(t, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	var wg sync.WaitGroup
	for _, tenant := range []string{"alpha", "beta"} {
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				code, body := get(t, hs.URL+"/t/"+tenant+"/relax?term=shared&k=2")
				if code != 200 || !strings.Contains(body, tenant+":shared") {
					t.Errorf("tenant %s got %d %q", tenant, code, body)
				}
			}(tenant)
		}
	}
	wg.Wait()
	// Each backend computed the query at least once but far fewer times
	// than it was asked: the rest came from that tenant's own partition, as
	// a hit or by joining the partition's flight.
	if fa.calls.Load() < 1 || fb.calls.Load() < 1 {
		t.Fatalf("backends not both exercised: alpha=%d beta=%d", fa.calls.Load(), fb.calls.Load())
	}
	ea, _ := ts.Engine("alpha")
	eb, _ := ts.Engine("beta")
	ha, _, ca, _ := ea.CacheStats()
	hb, _, cb, _ := eb.CacheStats()
	if ha+ca+uint64(fa.calls.Load()) < 8 || hb+cb+uint64(fb.calls.Load()) < 8 {
		t.Errorf("per-tenant accounting incomplete: alpha hits=%d collapsed=%d calls=%d, beta hits=%d collapsed=%d calls=%d",
			ha, ca, fa.calls.Load(), hb, cb, fb.calls.Load())
	}
}

// TestTenantMetricsLabels checks the shared /metrics surface carries one
// series per tenant, distinguished by the tenant label.
func TestTenantMetricsLabels(t *testing.T) {
	_, hs, _, _ := newTenantStack(t, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	get(t, hs.URL+"/t/alpha/relax?term=x&k=1")
	get(t, hs.URL+"/t/beta/relax?term=x&k=1")
	code, body := get(t, hs.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`medrelax_http_requests_total{tenant="alpha",endpoint="/relax",code="200"}`,
		`medrelax_http_requests_total{tenant="beta",endpoint="/relax",code="200"}`,
		`medrelax_bundle_generation{tenant="alpha"}`,
		`medrelax_bundle_generation{tenant="beta"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestTenantReloadIndependence reloads one tenant and checks the other's
// generation and cache are untouched.
func TestTenantReloadIndependence(t *testing.T) {
	shared := metrics.NewRegistry()
	ts := NewTenantServer()
	engines := map[string]*Engine{}
	for _, name := range []string{"alpha", "beta"} {
		name := name
		o := Options{
			CacheCapacity: 128, CacheTTL: time.Minute,
			Metrics: shared,
			Tenant:  name,
			Loader: func() (server.Backend, error) {
				return &fakeBackend{label: name + "-v2"}, nil
			},
		}
		e := NewEngine(&fakeBackend{label: name}, o)
		engines[name] = e
		ts.Add(name, e, server.New(e).Handler())
	}
	ts.def = "alpha"
	hs := httptest.NewServer(ts.Handler())
	defer hs.Close()

	// Warm both caches, then reload only beta.
	get(t, hs.URL+"/t/alpha/relax?term=x&k=1")
	get(t, hs.URL+"/t/beta/relax?term=x&k=1")
	req, _ := http.NewRequest("POST", hs.URL+"/t/beta/admin/reload", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("beta reload = %d", resp.StatusCode)
	}

	// Beta's answers now come from its v2 backend; alpha still serves v1
	// from its untouched cache.
	if _, body := get(t, hs.URL+"/t/beta/relax?term=x&k=1"); !strings.Contains(body, "beta-v2:x") {
		t.Errorf("beta not reloaded: %s", body)
	}
	if _, body := get(t, hs.URL+"/t/alpha/relax?term=x&k=1"); !strings.Contains(body, "alpha:x") {
		t.Errorf("alpha affected by beta reload: %s", body)
	}
	if _, _, _, entries := engines["alpha"].CacheStats(); entries == 0 {
		t.Error("alpha cache was purged by beta's reload")
	}
	if got := engines["beta"].cur.Load().gen; got != 2 {
		t.Errorf("beta generation = %d, want 2", got)
	}
	if got := engines["alpha"].cur.Load().gen; got != 1 {
		t.Errorf("alpha generation = %d, want 1", got)
	}
}

// TestBatchThroughCache drives /relax/batch and checks per-item hit/miss
// accounting: a second identical batch is served fully from cache.
func TestBatchThroughCache(t *testing.T) {
	fb := &fakeBackend{label: "A"}
	e, hs := newStack(t, fb, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	body := `{"queries":[{"term":"a","k":1},{"term":"b","k":1},{"term":"a","k":2}]}`
	for round := 1; round <= 2; round++ {
		resp, err := http.Post(hs.URL+"/relax/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Items []struct {
				Status int `json:"status"`
			} `json:"items"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(out.Items) != 3 {
			t.Fatalf("round %d: %d items", round, len(out.Items))
		}
		for i, it := range out.Items {
			if it.Status != 200 {
				t.Fatalf("round %d item %d: status %d", round, i, it.Status)
			}
		}
	}
	if got := fb.calls.Load(); got != 3 {
		t.Errorf("backend calls = %d, want 3 (second batch fully cached)", got)
	}
	hits, misses, _, _ := e.CacheStats()
	if hits != 3 || misses != 3 {
		t.Errorf("cache hits=%d misses=%d, want 3/3", hits, misses)
	}
}

// TestBatchMixedHitMiss warms one key via single /relax, then batches it
// with a cold key: exactly the cold one reaches the backend.
func TestBatchMixedHitMiss(t *testing.T) {
	fb := &fakeBackend{label: "A"}
	e := NewEngine(fb, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	if _, err := e.Relax(context.Background(), "warm", "", 1); err != nil {
		t.Fatal(err)
	}
	out := e.RelaxBatch(context.Background(), []server.BatchItem{
		{Term: "warm", K: 1},
		{Term: "cold", K: 1},
		{Term: "missing", K: 1},
	})
	if fb.calls.Load() != 3 { // warm once (single), cold + missing (batch)
		t.Errorf("backend calls = %d, want 3", fb.calls.Load())
	}
	if out[0].Err != nil || out[0].Results[0].Concept != "A:warm" {
		t.Errorf("warm item = %+v", out[0])
	}
	if out[1].Err != nil || out[1].Results[0].Concept != "A:cold" {
		t.Errorf("cold item = %+v", out[1])
	}
	if out[2].Err == nil {
		t.Error("missing item should fail")
	}
	// Failed items are not cached: the next batch recomputes only them.
	_ = e.RelaxBatch(context.Background(), []server.BatchItem{
		{Term: "cold", K: 1},
		{Term: "missing", K: 1},
	})
	if fb.calls.Load() != 4 {
		t.Errorf("backend calls = %d, want 4 (cold cached, missing retried)", fb.calls.Load())
	}
}
