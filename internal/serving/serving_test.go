package serving

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/dialog"
	"medrelax/internal/server"
	"medrelax/internal/stringutil"
)

// fakeBackend is a controllable server.Backend: per-call delay, counts of
// the items it computed (in all and per normalized term), a concurrency
// high-water mark, a label baked into results so tests can tell which backend
// generation answered, and the serve path every answer reports. Results name
// the normalized term, as a real backend's do not depend on the spelling.
type fakeBackend struct {
	label   string
	delay   time.Duration
	path    core.ServePath
	decline string

	calls    atomic.Int64
	byTerm   sync.Map // normalized term -> *atomic.Int64
	inflight atomic.Int64
	maxSeen  atomic.Int64
}

func (f *fakeBackend) RelaxBatch(ctx context.Context, reqs []server.Request) []server.Response {
	f.calls.Add(int64(len(reqs)))
	for _, req := range reqs {
		n, _ := f.byTerm.LoadOrStore(stringutil.Normalize(req.Term), new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
	}
	cur := f.inflight.Add(1)
	defer f.inflight.Add(-1)
	for {
		prev := f.maxSeen.Load()
		if cur <= prev || f.maxSeen.CompareAndSwap(prev, cur) {
			break
		}
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return failAll(len(reqs), ctx.Err())
		}
	}
	out := make([]server.Response, len(reqs))
	for i, req := range reqs {
		term := stringutil.Normalize(req.Term)
		if term == "missing" {
			out[i].Err = fmt.Errorf("fake: %q: %w", req.Term, core.ErrUnknownTerm)
			continue
		}
		out[i] = server.Response{Path: f.path, Decline: f.decline, Results: []server.RelaxResult{
			{Concept: f.label + ":" + term, Score: 1.0, Hops: req.K, Instances: []string{f.label + "-inst"}},
		}}
	}
	return out
}

// computed is how many times the backend computed term, under any spelling.
func (f *fakeBackend) computed(term string) int64 {
	if n, ok := f.byTerm.Load(stringutil.Normalize(term)); ok {
		return n.(*atomic.Int64).Load()
	}
	return 0
}

func (f *fakeBackend) NewConversation() (*dialog.Conversation, error) {
	return nil, fmt.Errorf("fake backend has no conversations")
}

func (f *fakeBackend) Stats() map[string]any { return map[string]any{"label": f.label} }

func (f *fakeBackend) Terms(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, "term"+strconv.Itoa(i))
	}
	return out
}

// newStack wires fakeBackend -> Engine -> server -> Engine.Handler, the
// exact production composition in cmd/kbserver.
func newStack(t *testing.T, b server.Backend, opts Options) (*Engine, *httptest.Server) {
	t.Helper()
	e := NewEngine(b, opts)
	ts := httptest.NewServer(e.Handler(server.New(e).Handler()))
	t.Cleanup(ts.Close)
	return e, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestCacheHitServesWithoutBackend(t *testing.T) {
	fb := &fakeBackend{label: "A"}
	e := NewEngine(fb, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	ctx := context.Background()
	r1, err := e.Relax(ctx, "fever", "c", 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Relax(ctx, "fever", "c", 5)
	if err != nil {
		t.Fatal(err)
	}
	if fb.calls.Load() != 1 {
		t.Fatalf("backend calls = %d, want 1 (second served from cache)", fb.calls.Load())
	}
	if r1[0].Concept != r2[0].Concept {
		t.Fatalf("cached result diverged: %v vs %v", r1, r2)
	}
	// Different k is a different key: the consumed candidate list differs.
	if _, err := e.Relax(ctx, "fever", "c", 6); err != nil {
		t.Fatal(err)
	}
	if fb.calls.Load() != 2 {
		t.Fatalf("backend calls = %d, want 2 after distinct k", fb.calls.Load())
	}
	// Normalized spellings share an entry.
	if _, err := e.Relax(ctx, "  FEVER ", "c", 5); err != nil {
		t.Fatal(err)
	}
	if fb.calls.Load() != 2 {
		t.Fatalf("backend calls = %d, want 2 after renormalized spelling", fb.calls.Load())
	}
	hits, misses, _, entries := e.CacheStats()
	if hits != 2 || misses != 2 || entries != 2 {
		t.Fatalf("cache stats = hits %d misses %d entries %d", hits, misses, entries)
	}
}

func TestCachedResponseByteIdentical(t *testing.T) {
	_, ts := newStack(t, &fakeBackend{label: "A"}, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	code1, body1 := get(t, ts.URL+"/relax?term=fever&context=&k=3")
	code2, body2 := get(t, ts.URL+"/relax?term=fever&context=&k=3")
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("status = %d, %d", code1, code2)
	}
	if body1 != body2 {
		t.Fatalf("cached response differs from uncached:\n%s\n%s", body1, body2)
	}
}

func TestSingleflightStorm(t *testing.T) {
	fb := &fakeBackend{label: "A", delay: 50 * time.Millisecond}
	e := NewEngine(fb, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Relax(context.Background(), "storm", "", 3)
			if err == nil && (len(res) != 1 || res[0].Concept != "A:storm") {
				err = fmt.Errorf("bad result %v", res)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := fb.calls.Load(); got != 1 {
		t.Fatalf("backend computed %d times for one key under storm, want 1", got)
	}
	hits, _, collapsed, _ := e.CacheStats()
	if hits+collapsed != n-1 {
		t.Fatalf("hits %d + collapsed %d = %d, want %d", hits, collapsed, hits+collapsed, n-1)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	fb := &fakeBackend{label: "A"}
	e := NewEngine(fb, Options{CacheCapacity: 128, CacheTTL: 20 * time.Millisecond})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := e.Relax(ctx, "fever", "", 3); err != nil {
			t.Fatal(err)
		}
	}
	if fb.calls.Load() != 1 {
		t.Fatalf("calls = %d before expiry, want 1", fb.calls.Load())
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := e.Relax(ctx, "fever", "", 3); err != nil {
		t.Fatal(err)
	}
	if fb.calls.Load() != 2 {
		t.Fatalf("calls = %d after TTL, want 2 (entry expired)", fb.calls.Load())
	}
}

func TestCacheLRUBound(t *testing.T) {
	c := NewCache(8, 0, 0)
	// fill probes key and, on a miss, completes the flight it opened.
	fill := func(key string) CacheStatus {
		_, fl, status := c.open(key)
		if status == CacheMiss {
			c.complete(fl, server.Response{Results: []server.RelaxResult{{Concept: key}}})
		}
		return status
	}
	for i := 0; i < 50; i++ {
		if status := fill("k" + strconv.Itoa(i)); status != CacheMiss {
			t.Fatalf("first probe of k%d: status %s, want miss", i, cacheStatusNames[status])
		}
	}
	if n := c.Len(); n > 8 {
		t.Fatalf("cache grew to %d entries, cap 8", n)
	}
	// Most recent key survives, the first key does not.
	if fill("k49") != CacheHit {
		t.Error("most recent key evicted")
	}
	if fill("k0") == CacheHit {
		t.Error("oldest key survived LRU pressure")
	}
}

func TestErrorsNotCached(t *testing.T) {
	fb := &fakeBackend{label: "A"}
	e := NewEngine(fb, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	for i := 0; i < 3; i++ {
		if _, err := e.Relax(context.Background(), "missing", "", 3); err == nil {
			t.Fatal("expected error")
		}
	}
	if fb.calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3 (errors must not be cached)", fb.calls.Load())
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	_, ts := newStack(t, &fakeBackend{label: "A", delay: 300 * time.Millisecond}, Options{
		CacheCapacity: 128, CacheTTL: time.Minute, RelaxTimeout: 25 * time.Millisecond,
	})
	code, body := get(t, ts.URL+"/relax?term=slow&k=3")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow relax = %d (%s), want 504", code, body)
	}
}

func TestDeadlineWithoutCache(t *testing.T) {
	_, ts := newStack(t, &fakeBackend{label: "A", delay: 300 * time.Millisecond}, Options{
		RelaxTimeout: 25 * time.Millisecond,
	})
	code, body := get(t, ts.URL+"/relax?term=slow&k=3")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow uncached relax = %d (%s), want 504", code, body)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := newStack(t, &fakeBackend{label: "A"}, Options{})
	if code, _ := get(t, ts.URL+"/relax?term=missing"); code != http.StatusNotFound {
		t.Errorf("unknown term = %d, want 404", code)
	}
}

func TestSheddingAtConcurrencyLimit(t *testing.T) {
	fb := &fakeBackend{label: "A", delay: 80 * time.Millisecond}
	e, ts := newStack(t, fb, Options{
		MaxConcurrent: 2,
	})
	const n = 16
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct terms so nothing is served by a cache (disabled
			// anyway) and every admitted request occupies the backend.
			resp, err := http.Get(ts.URL + "/relax?term=t" + strconv.Itoa(i) + "&k=3")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if got := resp.Header.Get("Retry-After"); got != "1" {
					t.Errorf("429 with Retry-After %q, want 1", got)
				}
				shed.Add(1)
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatalf("no requests shed at limit 2 with %d concurrent", n)
	}
	if ok.Load() == 0 {
		t.Fatal("every request shed — limiter admitted nothing")
	}
	if max := fb.maxSeen.Load(); max > 2 {
		t.Fatalf("backend saw %d concurrent requests, limit 2", max)
	}
	if v := e.reg.Counter("medrelax_http_shed_total", "", `endpoint="/relax"`).Value(); v != uint64(shed.Load()) {
		t.Errorf("shed metric = %d, client saw %d", v, shed.Load())
	}
}

func TestChatGuards(t *testing.T) {
	_, ts := newStack(t, &fakeBackend{label: "A"}, Options{
		MaxChatBody: 64,
		ChatRPS:     0.001, // effectively: only the initial burst token
		ChatBurst:   1,
	})
	// First chat passes the guards (conversation creation then fails 503,
	// which is fine — the guard is what's under test).
	resp, err := http.Post(ts.URL+"/chat", "application/json",
		strings.NewReader(`{"session":"s","text":"hi"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatalf("first chat rate-limited, burst 1 should admit it")
	}
	// Second chat exceeds the rate.
	resp, err = http.Post(ts.URL+"/chat", "application/json",
		strings.NewReader(`{"session":"s","text":"hi"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second chat = %d, want 429", resp.StatusCode)
	}
	// Oversized bodies are cut off by MaxBytesReader before JSON decode.
	big := `{"session":"s","text":"` + strings.Repeat("x", 4096) + `"}`
	_, ts2 := newStack(t, &fakeBackend{label: "A"}, Options{MaxChatBody: 64})
	resp, err = http.Post(ts2.URL+"/chat", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized chat body = %d, want 400", resp.StatusCode)
	}
}

func TestReloadDuringTraffic(t *testing.T) {
	// Loader alternates generations; every in-flight response must be
	// coherently from one generation, and no request may fail.
	fb2 := &fakeBackend{label: "B"}
	opts := Options{
		CacheCapacity: 1024,
		CacheTTL:      time.Minute,
		Loader:        func() (server.Backend, error) { return fb2, nil },
	}
	_, ts := newStack(t, &fakeBackend{label: "A"}, opts)

	const workers = 8
	stop := make(chan struct{})
	var failures atomic.Int64
	var sawA, sawB atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, body := get(t, ts.URL+"/relax?term=t"+strconv.Itoa(i%20)+"&k=3")
				if code != http.StatusOK {
					failures.Add(1)
					continue
				}
				switch {
				case strings.Contains(body, `"A:`):
					sawA.Add(1)
				case strings.Contains(body, `"B:`):
					sawB.Add(1)
				default:
					failures.Add(1)
				}
				if strings.Contains(body, `"A:`) && strings.Contains(body, `"B:`) {
					t.Error("mixed-generation response")
				}
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d (%s)", resp.StatusCode, body)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across the reload, want 0", n)
	}
	if sawA.Load() == 0 || sawB.Load() == 0 {
		t.Fatalf("traffic did not span the reload: A=%d B=%d", sawA.Load(), sawB.Load())
	}
	// After the swap and cache purge, fresh keys answer from B only.
	_, after := get(t, ts.URL+"/relax?term=fresh&k=3")
	if !strings.Contains(after, `"B:`) {
		t.Fatalf("post-reload response still from old bundle: %s", after)
	}
}

func TestReloadWithoutLoader(t *testing.T) {
	_, ts := newStack(t, &fakeBackend{label: "A"}, Options{})
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without loader = %d, want 501", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newStack(t, &fakeBackend{label: "A"}, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	for i := 0; i < 5; i++ {
		get(t, ts.URL+"/relax?term=fever&k=3")
	}
	get(t, ts.URL+"/relax?term=missing")
	get(t, ts.URL+"/healthz")

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	// Parse into name{labels} -> value and assert the layer's vital signs.
	values := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		values[fields[0]] = v
	}
	checks := []struct {
		series string
		min    float64
	}{
		{`medrelax_relax_cache_hits_total`, 4},
		{`medrelax_relax_cache_misses_total`, 1},
		{`medrelax_http_requests_total{endpoint="/relax",code="200"}`, 5},
		{`medrelax_http_requests_total{endpoint="/relax",code="404"}`, 1},
		{`medrelax_http_requests_total{endpoint="/healthz",code="200"}`, 1},
		{`medrelax_http_request_seconds_count{endpoint="/relax"}`, 6},
		{`medrelax_bundle_generation`, 1},
	}
	for _, c := range checks {
		if got, ok := values[c.series]; !ok || got < c.min {
			t.Errorf("%s = %v (present %v), want >= %v", c.series, got, ok, c.min)
		}
	}
}

func TestStatsServingSection(t *testing.T) {
	e, ts := newStack(t, &fakeBackend{label: "A"}, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	get(t, ts.URL+"/relax?term=fever&k=3")
	get(t, ts.URL+"/relax?term=fever&k=3")
	stats := e.Stats()
	serving, ok := stats["serving"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing serving section: %v", stats)
	}
	if serving["cacheHits"].(uint64) < 1 {
		t.Errorf("serving stats cacheHits = %v", serving["cacheHits"])
	}
	if stats["label"] != "A" {
		t.Errorf("inner stats not merged: %v", stats)
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// A -race smoke over every moving part at once: storms, TTLs, sheds,
	// reloads, metrics scrapes.
	fb2 := &fakeBackend{label: "B"}
	opts := Options{
		CacheCapacity: 64,
		CacheTTL:      10 * time.Millisecond,
		MaxConcurrent: 8,
		RelaxTimeout:  time.Second,
		Loader:        func() (server.Backend, error) { return fb2, nil },
	}
	e, ts := newStack(t, &fakeBackend{label: "A", delay: time.Millisecond}, opts)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch w % 4 {
				case 0, 1:
					get(t, ts.URL+"/relax?term=t"+strconv.Itoa(i%10)+"&k=3")
				case 2:
					get(t, ts.URL+"/metrics")
				case 3:
					if i%10 == 0 {
						_ = e.Reload()
					} else {
						get(t, ts.URL+"/stats")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	var buf bytes.Buffer
	if err := e.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestCacheBypassHeader pins Request.NoStore — no read and no write of the
// result cache — and that `Cache-Control: no-store` sets it end to end, for a
// GET and for every item of a batch.
func TestCacheBypassHeader(t *testing.T) {
	fb := &fakeBackend{label: "A"}
	e, ts := newStack(t, fb, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	ctx := context.Background()
	noStore := func(term string) {
		t.Helper()
		if out := e.RelaxBatch(ctx, []server.Request{{Term: term, K: 3, NoStore: true}}); out[0].Err != nil {
			t.Fatal(out[0].Err)
		}
	}
	relax := func(term string) {
		t.Helper()
		if _, err := e.Relax(ctx, term, "", 3); err != nil {
			t.Fatal(err)
		}
	}

	// Prime the cache, then bypass it: the backend must answer again.
	relax("fever")
	noStore("fever")
	if n := fb.computed("fever"); n != 2 {
		t.Fatalf("fever computed %d times after NoStore, want 2 (cache not read)", n)
	}
	// The entry primed before the bypass still serves plain requests.
	relax("fever")
	if n := fb.computed("fever"); n != 2 {
		t.Fatalf("fever computed %d times, want 2 (cached entry survived the bypass)", n)
	}
	// A bypassed computation must not populate the cache either.
	noStore("cough")
	relax("cough")
	if n := fb.computed("cough"); n != 2 {
		t.Fatalf("cough computed %d times, want 2 (NoStore must not write the cache)", n)
	}

	// The header is the field, on a GET and on each batch item.
	send := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Cache-Control", "no-store")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s with no-store: status %d", method, path, resp.StatusCode)
		}
	}
	send(http.MethodGet, "/relax?term=fever&k=3", "")
	send(http.MethodPost, "/relax/batch", `{"queries":[{"term":"fever","k":3},{"term":"chills","k":3}]}`)
	get(t, ts.URL+"/relax?term=chills&k=3")
	if f, c := fb.computed("fever"), fb.computed("chills"); f != 4 || c != 2 {
		t.Fatalf("computed fever %d, chills %d times after no-store HTTP requests, want 4 and 2", f, c)
	}
	if got := e.mCache[CacheBypass].Value(); got != 5 {
		t.Errorf("cache bypass counter = %d, want 5 (one per request and batch item)", got)
	}
}

func TestServePathCounters(t *testing.T) {
	tb := &fakeBackend{label: "A", path: core.PathMaterialized}
	e := NewEngine(tb, Options{CacheCapacity: 128, CacheTTL: time.Minute})
	ctx := context.Background()

	// Miss computes and attributes; the following hit attributes nothing.
	if _, err := e.Relax(ctx, "fever", "c", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Relax(ctx, "fever", "c", 3); err != nil {
		t.Fatal(err)
	}
	if got := e.mPathMat.Value(); got != 1 {
		t.Fatalf("materialized hit counter = %d, want 1 (hits must not re-count)", got)
	}

	// Batch outcomes attribute per successful item; errors are not counted.
	// Here a truncated entry declined each before the index answered.
	tb.path, tb.decline = core.PathIndexed, core.DeclineTruncated
	out := e.RelaxBatch(ctx, []server.Request{
		{Term: "a", K: 3, NoStore: true}, {Term: "b", K: 3, NoStore: true}, {Term: "missing", K: 3, NoStore: true},
	})
	if out[2].Err == nil {
		t.Fatal("expected the missing term to fail")
	}
	if got := e.mPathIdx.Value(); got != 2 {
		t.Fatalf("index path counter = %d, want 2", got)
	}
	if got := e.mPathLive.Value(); got != 0 {
		t.Fatalf("live path counter = %d, want 0", got)
	}
	if got := e.mCache[CacheBypass].Value(); got != 3 {
		t.Fatalf("cache bypass counter = %d, want 3", got)
	}

	serving, ok := e.Stats()["serving"].(map[string]any)
	if !ok {
		t.Fatal("stats missing serving section")
	}
	paths, ok := serving["servePaths"].(map[string]uint64)
	if !ok {
		t.Fatalf("serving stats missing servePaths: %v", serving)
	}
	if paths["materialized"] != 1 || paths["indexed"] != 2 || paths["live"] != 0 || paths["materializedTruncated"] != 2 {
		t.Fatalf("servePaths = %v", paths)
	}
	if serving["cacheBypassed"].(uint64) != 3 {
		t.Fatalf("cacheBypassed = %v", serving["cacheBypassed"])
	}
}

// geometryBackend reports a geometry memo whose counts the test sets.
type geometryBackend struct {
	fakeBackend
	geometry map[string]uint64
}

func (g *geometryBackend) Stats() map[string]any {
	return map[string]any{"relaxGeometry": g.geometry}
}

// TestGeometrySeries pins how a snapshot's geometry-memo counts and IC planes
// reach /metrics: read from the backend's stats at scrape time, counters that
// keep growing across a reload although the new snapshot's memo starts from
// zero, and gauges that follow the current one.
func TestGeometrySeries(t *testing.T) {
	a := &geometryBackend{geometry: map[string]uint64{"hits": 7, "fills": 3, "refills": 1, "mapped": 5, "evictions": 0, "bytes": 4096, "planes": 3, "planeBytes": 36000}}
	e, ts := newStack(t, a, Options{})
	scrape := func() map[string]string {
		_, body := get(t, ts.URL+"/metrics")
		got := map[string]string{}
		for _, line := range strings.Split(body, "\n") {
			name, value, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			for _, prefix := range []string{"medrelax_relax_geometry_", "medrelax_relax_ic_"} {
				if strings.HasPrefix(name, prefix) {
					got[strings.TrimPrefix(name, prefix)] = value
				}
			}
		}
		return got
	}
	want := map[string]string{"hits_total": "7", "fills_total": "3", "refills_total": "1", "mapped_total": "5", "evictions_total": "0", "bytes": "4096", "planes": "3", "plane_bytes": "36000"}
	if got := scrape(); !reflect.DeepEqual(got, want) {
		t.Fatalf("first scrape: %v, want %v", got, want)
	}
	a.geometry["hits"], a.geometry["evictions"] = 9, 2
	e.Swap(&geometryBackend{geometry: map[string]uint64{"hits": 1, "fills": 1, "refills": 0, "mapped": 2, "evictions": 0, "bytes": 512, "planes": 1, "planeBytes": 12000}})
	// The old snapshot's last two hits were never scraped and are gone with
	// it; the new one's counts add to what the series held.
	want = map[string]string{"hits_total": "8", "fills_total": "4", "refills_total": "1", "mapped_total": "7", "evictions_total": "0", "bytes": "512", "planes": "1", "plane_bytes": "12000"}
	if got := scrape(); !reflect.DeepEqual(got, want) {
		t.Fatalf("scrape after the swap: %v, want %v", got, want)
	}
	// A backend without the section leaves the series alone.
	e.Swap(&fakeBackend{label: "plain"})
	if got := scrape(); !reflect.DeepEqual(got, want) {
		t.Fatalf("scrape of a backend with no geometry stats: %v, want %v", got, want)
	}
}
