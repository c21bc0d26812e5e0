package serving

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"medrelax/internal/server"
	"medrelax/internal/trace"
)

const testTraceparent = "00-1af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
const testTraceID = "1af7651916cd43dd8448eb211c80319c"

// tracedGet issues a GET carrying a sampled traceparent and returns the
// response (including the span backhaul header).
func tracedGet(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.TraceparentHeader, testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// spanProbeBackend is a fakeBackend that records whether the request's
// trace span survived all the way into the backend call — including
// across the singleflight's detached flight context.
type spanProbeBackend struct {
	fakeBackend
	sawSpan atomic.Bool
}

func (b *spanProbeBackend) RelaxBatch(ctx context.Context, reqs []server.Request) []server.Response {
	if trace.FromContext(ctx) != nil {
		b.sawSpan.Store(true)
	}
	return b.fakeBackend.RelaxBatch(ctx, reqs)
}

// TestTracedRequestRecordsServingSpans drives one miss and one hit
// through a traced engine and checks the recorded traces: request root,
// admission span, cache span with the right outcome, and the backhaul
// header a fronting router would merge. RelaxTimeout is set so the miss
// computes on the singleflight's detached context — the span must ride
// along anyway.
func TestTracedRequestRecordsServingSpans(t *testing.T) {
	rec := trace.NewRecorder(16, 4)
	opts := Options{
		CacheCapacity: 128,
		CacheTTL:      time.Minute,
		MaxConcurrent: 8,
		RelaxTimeout:  5 * time.Second,
		Tracer:        trace.NewTracer("kbserver", 0, rec),
		Tenant:        "acme",
	}
	backend := &spanProbeBackend{fakeBackend: fakeBackend{label: "A"}}
	_, ts := newStack(t, backend, opts)

	for i := 0; i < 2; i++ { // first is a miss, second a hit
		resp := tracedGet(t, ts.URL+"/relax?term=fever&k=3")
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if resp.Header.Get(trace.SpansHeader) == "" {
			t.Fatalf("request %d: no span backhaul header on a traced response", i)
		}
	}

	if !backend.sawSpan.Load() {
		t.Fatal("trace span did not reach the backend through the singleflight's detached flight context")
	}

	traces, total := rec.Snapshot(false)
	if total != 2 || len(traces) != 2 {
		t.Fatalf("recorded %d traces (total %d), want 2", len(traces), total)
	}
	// Snapshot is newest-first: traces[1] is the miss, traces[0] the hit.
	wantOutcome := []string{"hit", "miss"}
	for i, tr := range traces {
		if tr.TraceID != testTraceID {
			t.Fatalf("trace %d id %s, want %s", i, tr.TraceID, testTraceID)
		}
		if tr.Tenant != "acme" || tr.Root != "server /relax" {
			t.Fatalf("trace %d metadata wrong: tenant=%q root=%q", i, tr.Tenant, tr.Root)
		}
		var admission, cache string
		for _, s := range tr.Spans {
			switch s.Name {
			case "serving.admission":
				admission = s.Tag("outcome")
			case "serving.cache":
				cache = s.Tag("outcome")
			}
		}
		if admission != "admitted" {
			t.Errorf("trace %d admission outcome %q, want admitted", i, admission)
		}
		if cache != wantOutcome[i] {
			t.Errorf("trace %d cache outcome %q, want %q", i, cache, wantOutcome[i])
		}
	}
}

// TestTracedBatchSpans checks the batch path: one serving.cache span
// carrying hit/miss counts per batch request.
func TestTracedBatchSpans(t *testing.T) {
	rec := trace.NewRecorder(16, 4)
	opts := Options{
		CacheCapacity: 128,
		CacheTTL:      time.Minute,
		Tracer:        trace.NewTracer("kbserver", 0, rec),
	}
	_, ts := newStack(t, &fakeBackend{label: "A"}, opts)

	// Warm one term, then batch it with a cold one.
	if status, _ := get(t, ts.URL+"/relax?term=fever&k=3"); status != 200 {
		t.Fatalf("warmup status %d", status)
	}
	body := `{"queries":[{"term":"fever","k":3},{"term":"cough","k":3}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/relax/batch", http.NoBody)
	if err != nil {
		t.Fatal(err)
	}
	req.Body = io.NopCloser(strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.TraceparentHeader, testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Items) != 2 {
		t.Fatalf("batch decode (%v): %d items", err, len(out.Items))
	}
	resp.Body.Close()

	traces, _ := rec.Snapshot(false)
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1 (warmup was untraced)", len(traces))
	}
	var found bool
	for _, s := range traces[0].Spans {
		if s.Name == "serving.cache" {
			found = true
			if s.Tag("hits") != "1" || s.Tag("misses") != "1" {
				t.Errorf("batch cache span hits=%q misses=%q, want 1/1", s.Tag("hits"), s.Tag("misses"))
			}
		}
	}
	if !found {
		t.Fatal("batch trace has no serving.cache span")
	}
}
