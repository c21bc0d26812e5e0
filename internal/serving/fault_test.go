package serving

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"medrelax/internal/fault"
	"medrelax/internal/persist"
	"medrelax/internal/server"
)

// armFaults installs a fault registry for the duration of one test.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	reg, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	fault.SetDefault(reg)
	t.Cleanup(func() { fault.SetDefault(nil) })
}

// getFull is like get but also returns the response headers.
func getFull(t *testing.T, url string) (int, string, http.Header) {
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
	return resp.StatusCode, string(body), resp.Header
}

// TestInjectedBackendFaultMapsTo503 pins the degradation contract for a
// transient backend failure: the client sees a retryable 503 with a
// Retry-After hint — never a 500 — and recovery is immediate once the
// fault clears.
func TestInjectedBackendFaultMapsTo503(t *testing.T) {
	_, ts := newStack(t, &fakeBackend{label: "A"}, Options{CacheCapacity: 64, CacheTTL: time.Minute})

	armFaults(t, "backend.relax:error,rate=1,count=1,msg=injected test fault")
	code, body, hdr := getFull(t, ts.URL+"/relax?term=fever&k=3")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("injected fault = %d (%s), want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 from injected fault missing Retry-After")
	}

	// The count is exhausted: the retry the header asked for succeeds.
	code, body, _ = getFull(t, ts.URL+"/relax?term=fever&k=3")
	if code != http.StatusOK || !strings.Contains(body, "A:fever") {
		t.Fatalf("after fault cleared = %d (%s), want 200 from backend", code, body)
	}
}

// TestCacheStaleOnError proves bounded stale-on-error serving: when
// recomputation fails, an entry expired less than CacheStaleWindow ago
// answers instead of the error; a term with no cached history still
// fails with 503.
func TestCacheStaleOnError(t *testing.T) {
	e, ts := newStack(t, &fakeBackend{label: "A"}, Options{
		CacheCapacity:    64,
		CacheTTL:         30 * time.Millisecond,
		CacheStaleWindow: 5 * time.Second,
	})

	code, fresh, _ := getFull(t, ts.URL+"/relax?term=fever&k=3")
	if code != http.StatusOK {
		t.Fatalf("prime = %d", code)
	}
	time.Sleep(60 * time.Millisecond) // entry expires, stays within the stale window

	armFaults(t, "backend.relax:error,rate=1")
	code, stale, _ := getFull(t, ts.URL+"/relax?term=fever&k=3")
	if code != http.StatusOK {
		t.Fatalf("stale-on-error = %d, want 200", code)
	}
	if stale != fresh {
		t.Errorf("stale response differs from original:\n%s\nvs\n%s", stale, fresh)
	}
	serving := e.Stats()["serving"].(map[string]any)
	if n := serving["cacheStaleServed"].(uint64); n == 0 {
		t.Error("cacheStaleServed not incremented")
	}

	// No cached history for this term: the error must surface.
	code, _, _ = getFull(t, ts.URL+"/relax?term=cough&k=3")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("uncached term under fault = %d, want 503", code)
	}
}

// TestCorruptReloadKeepsServing is the hot-reload half of the crash
// -safety story: a reload that fails with a corrupt bundle must leave the
// live generation untouched and visible, and account for itself in the
// reload-failure metrics with the "corrupt" reason.
func TestCorruptReloadKeepsServing(t *testing.T) {
	// A bundle in a form no reader decodes any more, pushed next to a live
	// server, is one more corrupt push, refused by the form's name.
	retired := func(fixture string) func() (server.Backend, error) {
		return func() (server.Backend, error) {
			_, err := persist.LoadFile(filepath.Join("..", "persist", "testdata", fixture))
			return nil, err
		}
	}
	loaders := map[string]struct {
		load func() (server.Backend, error)
		want string // what the reload's refusal must say
	}{
		"corrupt": {func() (server.Backend, error) {
			return nil, fmt.Errorf("bundle %q: %w", "x.bin", persist.ErrCorruptBundle)
		}, "corrupt bundle"},
		"retired binary v2":        {retired("retired-v2.mrxb"), "binary v2"},
		"retired posting sections": {retired("retired-postings.flat"), "sections 90–93"},
		"retired json v1":          {retired("retired-v1.json"), "json v1"},
		"retired sources section":  {retired("retired-sources-json.flat"), "section 100"},
		"retired token index":      {retired("retired-token-index.flat"), "sections 25–28"},
	}
	for name, tc := range loaders {
		t.Run(name, func(t *testing.T) { corruptReloadKeepsServing(t, tc.load, tc.want) })
	}
}

func corruptReloadKeepsServing(t *testing.T, loader func() (server.Backend, error), want string) {
	e, ts := newStack(t, &fakeBackend{label: "A"}, Options{
		CacheCapacity: 64,
		CacheTTL:      time.Minute,
		Loader:        loader,
	})

	code, body, _ := getFull(t, ts.URL+"/relax?term=fever&k=3")
	if code != http.StatusOK || !strings.Contains(body, "A:fever") {
		t.Fatalf("pre-reload = %d (%s)", code, body)
	}

	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	reloadBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload = %d (%s), want 500", resp.StatusCode, reloadBody)
	}
	if !strings.Contains(string(reloadBody), want) {
		t.Errorf("the reload's refusal %s does not say %q", reloadBody, want)
	}

	// A fresh key (not served from cache) must still answer from the old
	// generation.
	code, body, _ = getFull(t, ts.URL+"/relax?term=chills&k=3")
	if code != http.StatusOK || !strings.Contains(body, "A:chills") {
		t.Fatalf("post-failed-reload = %d (%s), want old generation", code, body)
	}

	if n := e.ReloadFailures(); n != 1 {
		t.Errorf("ReloadFailures() = %d, want 1", n)
	}
	_, metricsBody, _ := getFull(t, ts.URL+"/metrics")
	for _, want := range []string{
		`medrelax_reload_failures_total 1`,
		`medrelax_reloads_total{result="corrupt"} 1`,
		`medrelax_bundle_generation 1`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMissingBundleReloadReason checks the other loader-failure bucket:
// a vanished bundle file lands in the "missing" series, still without
// touching the serving generation.
func TestMissingBundleReloadReason(t *testing.T) {
	e, ts := newStack(t, &fakeBackend{label: "A"}, Options{
		Loader: func() (server.Backend, error) {
			_, err := persist.LoadFile(filepath.Join(t.TempDir(), "gone.bin"))
			return nil, err
		},
	})
	if err := e.Reload(); err == nil {
		t.Fatal("reload of missing bundle succeeded")
	}
	_, metricsBody, _ := getFull(t, ts.URL+"/metrics")
	if !strings.Contains(metricsBody, `medrelax_reloads_total{result="missing"} 1`) {
		t.Errorf("metrics missing the missing-file series:\n%s", metricsBody)
	}
}
