package serving

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"medrelax/internal/server"
)

// framing sends relax queries one way: each as a GET (size 0), or in batches
// of size items, a batch short of size padded with warm filler terms whose
// answers are dropped.
type framing struct {
	name string
	size int
}

var framings = []framing{{"get", 0}, {"batch1", 1}, {"batch3", 3}}

// fillers pad a short batch; newFramedStack warms them, so they are hits.
var fillers = []string{"chills", "cough"}

// framed is one query's answer: its status and body, without the trailing
// newline a GET body carries and a batch item does not.
type framed struct {
	status int
	body   string
}

// ask sends terms (k=3) through h under ctx, with `Cache-Control: no-store`
// when noStore is set, and returns each term's answer in order.
func (f framing) ask(t *testing.T, ctx context.Context, h http.Handler, noStore bool, terms ...string) []framed {
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		if noStore {
			req.Header.Set("Cache-Control", "no-store")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req.WithContext(ctx))
		return rec
	}
	var out []framed
	if f.size == 0 {
		for _, term := range terms {
			rec := serve(httptest.NewRequest(http.MethodGet, "/relax?term="+url.QueryEscape(term)+"&k=3", nil))
			out = append(out, framed{rec.Code, strings.TrimSuffix(rec.Body.String(), "\n")})
		}
		return out
	}
	for len(terms) > 0 {
		n := min(f.size, len(terms))
		queries := make([]server.Request, 0, f.size)
		for _, term := range append(terms[:n:n], fillers[:f.size-n]...) {
			queries = append(queries, server.Request{Term: term, K: 3})
		}
		terms = terms[n:]
		payload, _ := json.Marshal(server.BatchRequest{Queries: queries})
		rec := serve(httptest.NewRequest(http.MethodPost, "/relax/batch", strings.NewReader(string(payload))))
		var resp struct {
			Items []server.BatchItemResponse `json:"items"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || len(resp.Items) != len(queries) {
			t.Errorf("%s: status %d, %d items (%v): %s", f.name, rec.Code, len(resp.Items), err, rec.Body)
			return append(out, make([]framed, n)...)
		}
		for _, it := range resp.Items[:n] {
			out = append(out, framed{it.Status, string(it.Body)})
		}
	}
	return out
}

// newFramedStack serves fb through the production handler stack with its
// fillers warm.
func newFramedStack(t *testing.T, fb *fakeBackend, opts Options) (*Engine, http.Handler) {
	t.Helper()
	e := NewEngine(fb, opts)
	warmFillers(t, e)
	return e, e.Handler(server.New(e).Handler())
}

func warmFillers(t *testing.T, e *Engine) {
	t.Helper()
	for _, term := range fillers {
		if _, err := e.Relax(context.Background(), term, "", 3); err != nil {
			t.Fatal(err)
		}
	}
}

// waitInflight returns once fb is computing.
func waitInflight(t *testing.T, fb *fakeBackend) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); fb.inflight.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the opening request never reached the backend")
		}
	}
}

// TestFramingSharesCacheSemantics pins that how a query is framed — a GET, a
// one-item batch, an item of a larger batch — cannot change its answer or
// what the cache does with it: hits, misses, flights joined across framings
// and within a batch, stale-on-error, no-store, a reload mid-flight and a
// joiner's own deadline behave the same in every framing.
func TestFramingSharesCacheSemantics(t *testing.T) {
	ctx := context.Background()
	// golden is a GET body from a stack with no cache at all.
	_, ref := newStack(t, &fakeBackend{label: "A"}, Options{})
	golden := func(term string) string {
		_, body := get(t, ref.URL+"/relax?term="+url.QueryEscape(term)+"&k=3")
		return strings.TrimSuffix(body, "\n")
	}
	expect := func(t *testing.T, got framed, status int, body string) {
		t.Helper()
		if got.status != status || (body != "" && got.body != body) {
			t.Errorf("answer: status %d, body %s; want status %d, body %s", got.status, got.body, status, body)
		}
	}
	computedOnce := func(t *testing.T, fb *fakeBackend, term string) {
		t.Helper()
		if n := fb.computed(term); n != 1 {
			t.Errorf("backend computed %q %d times, want 1", term, n)
		}
	}
	cached := Options{CacheCapacity: 128, CacheTTL: time.Minute, RelaxTimeout: 5 * time.Second}

	rows := []struct {
		name string
		run  func(t *testing.T, f framing)
	}{
		{"hit", func(t *testing.T, f framing) {
			fb := &fakeBackend{label: "A"}
			e, h := newFramedStack(t, fb, cached)
			if _, err := e.Relax(ctx, "fever", "", 3); err != nil {
				t.Fatal(err)
			}
			expect(t, f.ask(t, ctx, h, false, "fever")[0], http.StatusOK, golden("fever"))
			computedOnce(t, fb, "fever")
		}},
		{"miss", func(t *testing.T, f framing) {
			fb := &fakeBackend{label: "A"}
			e, h := newFramedStack(t, fb, cached)
			expect(t, f.ask(t, ctx, h, false, "fever")[0], http.StatusOK, golden("fever"))
			if _, err := e.Relax(ctx, "fever", "", 3); err != nil {
				t.Fatal(err)
			}
			computedOnce(t, fb, "fever")
		}},
		{"race with the other framing", func(t *testing.T, f framing) {
			fb := &fakeBackend{label: "A", delay: 50 * time.Millisecond}
			_, h := newFramedStack(t, fb, cached)
			other := framings[0]
			if f.size == 0 {
				other = framings[1]
			}
			opener := make(chan framed)
			go func() { opener <- other.ask(t, ctx, h, false, "fever")[0] }()
			waitInflight(t, fb)
			expect(t, f.ask(t, ctx, h, false, "fever")[0], http.StatusOK, golden("fever"))
			expect(t, <-opener, http.StatusOK, golden("fever"))
			computedOnce(t, fb, "fever")
		}},
		{"duplicate keys", func(t *testing.T, f framing) {
			fb := &fakeBackend{label: "A", delay: 10 * time.Millisecond}
			e, h := newFramedStack(t, fb, cached)
			hits, misses, collapsed, _ := e.CacheStats()
			terms := []string{"fever", "fever", "Fever"}
			for i, got := range f.ask(t, ctx, h, false, terms...) {
				expect(t, got, http.StatusOK, golden(terms[i]))
			}
			computedOnce(t, fb, "fever")
			h2, m2, c2, _ := e.CacheStats()
			if n := (h2 - hits) + (m2 - misses) + (c2 - collapsed); n != 3 {
				t.Errorf("the three items count %d times in the hit, miss and collapsed series, want 3", n)
			}
		}},
		{"stale on error", func(t *testing.T, f framing) {
			fb := &fakeBackend{label: "A"}
			e, h := newFramedStack(t, fb, Options{CacheCapacity: 128, CacheTTL: 100 * time.Millisecond, CacheStaleWindow: 5 * time.Second})
			if _, err := e.Relax(ctx, "fever", "", 3); err != nil {
				t.Fatal(err)
			}
			time.Sleep(150 * time.Millisecond) // fever expires inside the stale window
			warmFillers(t, e)
			staleServed := func() uint64 { return e.Stats()["serving"].(map[string]any)["cacheStaleServed"].(uint64) }
			before, want := staleServed(), golden("fever")
			armFaults(t, "backend.relax:error,rate=1")
			expect(t, f.ask(t, ctx, h, false, "fever")[0], http.StatusOK, want)
			if n := staleServed() - before; n != 1 {
				t.Errorf("cacheStaleServed rose by %d, want 1", n)
			}
		}},
		{"no-store", func(t *testing.T, f framing) {
			fb := &fakeBackend{label: "A"}
			e, h := newFramedStack(t, fb, cached)
			if _, err := e.Relax(ctx, "fever", "", 3); err != nil {
				t.Fatal(err)
			}
			expect(t, f.ask(t, ctx, h, true, "fever")[0], http.StatusOK, golden("fever"))
			if n := fb.computed("fever"); n != 2 {
				t.Errorf("backend computed fever %d times, want 2: no-store must not read the cache", n)
			}
			expect(t, f.ask(t, ctx, h, true, "headache")[0], http.StatusOK, golden("headache"))
			if _, err := e.Relax(ctx, "headache", "", 3); err != nil {
				t.Fatal(err)
			}
			if n := fb.computed("headache"); n != 2 {
				t.Errorf("backend computed headache %d times, want 2: no-store must not write the cache", n)
			}
		}},
		{"swap mid-flight", func(t *testing.T, f framing) {
			fb, next := &fakeBackend{label: "A", delay: 50 * time.Millisecond}, &fakeBackend{label: "B"}
			e, h := newFramedStack(t, fb, cached)
			answered := make(chan framed)
			go func() { answered <- f.ask(t, ctx, h, false, "fever")[0] }()
			waitInflight(t, fb)
			e.Swap(next)
			expect(t, <-answered, http.StatusOK, golden("fever"))
			if _, err := e.Relax(ctx, "fever", "", 3); err != nil {
				t.Fatal(err)
			}
			computedOnce(t, next, "fever") // the old generation's answer was not stored
		}},
		{"joiner's deadline fires first", func(t *testing.T, f framing) {
			fb := &fakeBackend{label: "A", delay: 100 * time.Millisecond}
			e, h := newFramedStack(t, fb, cached)
			opened := make(chan error)
			go func() {
				_, err := e.Relax(ctx, "fever", "", 3)
				opened <- err
			}()
			waitInflight(t, fb)
			short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
			defer cancel()
			expect(t, f.ask(t, short, h, false, "fever")[0], http.StatusGatewayTimeout, "")
			if err := <-opened; err != nil {
				t.Fatal(err)
			}
			// The flight outlived the joiner and filled the cache.
			expect(t, f.ask(t, ctx, h, false, "fever")[0], http.StatusOK, golden("fever"))
			computedOnce(t, fb, "fever")
		}},
	}
	for _, f := range framings {
		for _, row := range rows {
			t.Run(f.name+"/"+row.name, func(t *testing.T) { row.run(t, f) })
		}
	}
}
