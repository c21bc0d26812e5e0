package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medrelax/internal/retry"
	"medrelax/internal/stringutil"
)

// fakeReplica is a minimal kbserver stand-in: /healthz, /relax echoing
// which replica answered, and /relax/batch answering positionally in the
// server's wire shape.
type fakeReplica struct {
	name string
	srv  *httptest.Server

	mu     sync.Mutex
	relax  func(w http.ResponseWriter, r *http.Request) bool // optional intercept
	served atomic.Int64
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok"}`+"\n")
	})
	mux.HandleFunc("GET /relax", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		hook := f.relax
		f.mu.Unlock()
		if hook != nil && hook(w, r) {
			return
		}
		f.served.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"replica":%q,"term":%q}`+"\n", f.name, r.URL.Query().Get("term"))
	})
	mux.HandleFunc("POST /relax/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Queries []struct {
				Term string `json:"term"`
			} `json:"queries"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.served.Add(int64(len(req.Queries)))
		type item struct {
			Status int `json:"status"`
			Body   any `json:"body"`
		}
		items := make([]item, len(req.Queries))
		for i, q := range req.Queries {
			items[i] = item{Status: 200, Body: map[string]string{"replica": f.name, "term": q.Term}}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"items": items})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

// testRouter builds a router over the fakes with fast, probe-free
// defaults; tests tweak the returned options via the build function.
func testRouter(t *testing.T, fakes []*fakeReplica, tune func(*Options)) *Router {
	t.Helper()
	opts := DefaultOptions()
	opts.ProbeInterval = 0 // passive-only: tests control failure marking
	opts.Retry = retry.Policy{MaxRetries: 2, Base: time.Millisecond, Cap: 5 * time.Millisecond}
	for _, f := range fakes {
		opts.Replicas = append(opts.Replicas, f.addr())
	}
	if tune != nil {
		tune(&opts)
	}
	rt := New(opts)
	t.Cleanup(rt.Stop)
	rt.Start()
	return rt
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	resp := rec.Result()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

func post(t *testing.T, h http.Handler, path, body string) (*http.Response, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// TestProxyRoutesByTerm pins routing determinism end to end: one term
// always lands on one replica, and the response body is the replica's
// bytes untouched.
func TestProxyRoutesByTerm(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := testRouter(t, fakes, nil)
	h := rt.Handler()
	for _, term := range []string{"fever", "cough", "rash", "nausea"} {
		var first []byte
		for i := 0; i < 5; i++ {
			resp, body := get(t, h, "/relax?term="+term)
			if resp.StatusCode != 200 {
				t.Fatalf("term %q: status %d: %s", term, resp.StatusCode, body)
			}
			if first == nil {
				first = body
				continue
			}
			if !bytes.Equal(body, first) {
				t.Fatalf("term %q: routing flapped: %s vs %s", term, first, body)
			}
		}
	}
}

// TestRoutingKeyFollowsCacheKey pins placement to the replica's result-cache
// key: spellings the cache folds onto one entry (stringutil.Normalize) get
// one routing key, so a GET and a batch item of any of them reach the one
// replica holding that entry, while another term or tenant keys apart.
func TestRoutingKeyFollowsCacheKey(t *testing.T) {
	spellings := []string{"heart attack", "Heart  Attack", "heart attack.", "HEART ATTACK,", " heart\tattack ", "(heart) attack!"}
	want := routingKey("", spellings[0])
	for _, s := range spellings {
		if stringutil.Normalize(s) != stringutil.Normalize(spellings[0]) {
			t.Fatalf("fixture: %q does not normalize like %q", s, spellings[0])
		}
		if got := routingKey("", s); got != want {
			t.Errorf("routingKey(%q) = %q, want %q: one cache entry, one placement", s, got, want)
		}
	}
	if routingKey("", "heart attacks") == want || routingKey("beta", "heart attack") == want {
		t.Error("another term or tenant shares the routing key")
	}

	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	h := testRouter(t, fakes, nil).Handler()
	type answer struct {
		Replica string `json:"replica"`
	}
	replicas := map[string]bool{}
	queries := make([]string, len(spellings))
	for i, s := range spellings {
		var a answer
		if _, body := get(t, h, "/relax?term="+url.QueryEscape(s)); json.Unmarshal(body, &a) != nil {
			t.Fatalf("GET %q: %s", s, body)
		}
		replicas[a.Replica] = true
		queries[i] = fmt.Sprintf(`{"term":%q,"k":1}`, s)
	}
	var batch struct {
		Items []struct {
			Body answer `json:"body"`
		} `json:"items"`
	}
	if _, body := post(t, h, "/relax/batch", `{"queries":[`+strings.Join(queries, ",")+`]}`); json.Unmarshal(body, &batch) != nil || len(batch.Items) != len(spellings) {
		t.Fatalf("batch: %s", body)
	}
	for _, it := range batch.Items {
		replicas[it.Body.Replica] = true
	}
	if len(replicas) != 1 {
		t.Errorf("one term's spellings reached replicas %v, want one", replicas)
	}
}

// TestProxyMissingTerm mirrors the replica's 400 contract without a hop.
func TestProxyMissingTerm(t *testing.T) {
	rt := testRouter(t, []*fakeReplica{newFakeReplica(t, "a")}, nil)
	resp, body := get(t, rt.Handler(), "/relax")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if want := `{"error":"missing term parameter"}` + "\n"; string(body) != want {
		t.Fatalf("body %q, want %q", body, want)
	}
}

// TestFailoverOnDeadReplica kills one replica and requires its keys to be
// answered by survivors, with the dead replica marked unhealthy by the
// passive path.
func TestFailoverOnDeadReplica(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := testRouter(t, fakes, func(o *Options) { o.FailAfter = 1 })
	h := rt.Handler()
	// Find a term owned by fakes[0] then kill it.
	victim := fakes[0]
	var term string
	for i := 0; ; i++ {
		term = fmt.Sprintf("probe-%d", i)
		if rt.ring.Owners(routingKey("", term), 1)[0] == victim.addr() {
			break
		}
	}
	victim.srv.Close()
	for i := 0; i < 5; i++ {
		resp, body := get(t, h, "/relax?term="+term)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d after kill: status %d: %s", i, resp.StatusCode, body)
		}
		var got struct{ Replica string }
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Replica == victim.name {
			t.Fatalf("request %d answered by dead replica", i)
		}
	}
	if rt.ReplicaHealthy(victim.addr()) {
		t.Error("dead replica still marked healthy after transport failures")
	}
}

// TestRetryOnShedStatus pins the backoff path: a replica that sheds once
// (503 + Retry-After) is retried per the policy and the client sees the
// eventual success, not the shed.
func TestRetryOnShedStatus(t *testing.T) {
	fake := newFakeReplica(t, "a")
	var failures atomic.Int64
	fake.relax = func(w http.ResponseWriter, _ *http.Request) bool {
		if failures.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"transient"}`+"\n")
			return true
		}
		return false
	}
	rt := testRouter(t, []*fakeReplica{fake}, nil)
	resp, body := get(t, rt.Handler(), "/relax?term=fever")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d after retryable shed: %s", resp.StatusCode, body)
	}
	if n := failures.Load(); n != 2 {
		t.Fatalf("replica saw %d attempts, want 2 (original + one retry)", n)
	}
	// A shed replica is alive, not dead: health must be untouched.
	if !rt.ReplicaHealthy(fake.addr()) {
		t.Error("replica marked unhealthy by a shed response")
	}
}

// TestAdmissionShedsBeforeReplica holds the router at its concurrency cap
// and requires the overflow request to get 429 + Retry-After without the
// replica ever seeing it.
func TestAdmissionShedsBeforeReplica(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	fake := newFakeReplica(t, "a")
	fake.relax = func(w http.ResponseWriter, r *http.Request) bool {
		entered <- struct{}{}
		<-release
		return false
	}
	rt := testRouter(t, []*fakeReplica{fake}, func(o *Options) { o.MaxConcurrent = 1 })
	h := rt.Handler()
	done := make(chan struct{})
	go func() {
		defer close(done)
		get(t, h, "/relax?term=held")
	}()
	<-entered // the slot is occupied inside the replica
	before := fake.served.Load()
	resp, body := get(t, h, "/relax?term=shed-me")
	close(release)
	<-done
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if fake.served.Load() != before+1 { // only the held request lands
		t.Error("shed request reached the replica")
	}
}

// TestScatterMergesPositionally fans a batch across three replicas and
// requires item i of the response to answer query i, regardless of which
// shard served it.
func TestScatterMergesPositionally(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := testRouter(t, fakes, nil)
	terms := make([]string, 40)
	queries := make([]map[string]any, len(terms))
	for i := range terms {
		terms[i] = fmt.Sprintf("term-%d", i)
		queries[i] = map[string]any{"term": terms[i], "k": 5}
	}
	body, _ := json.Marshal(map[string]any{"queries": queries})
	resp, respBody := post(t, rt.Handler(), "/relax/batch", string(body))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, respBody)
	}
	var got struct {
		Items []struct {
			Status int `json:"status"`
			Body   struct {
				Replica string `json:"replica"`
				Term    string `json:"term"`
			} `json:"body"`
		} `json:"items"`
	}
	if err := json.Unmarshal(respBody, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != len(terms) {
		t.Fatalf("%d items, want %d", len(got.Items), len(terms))
	}
	replicasSeen := map[string]bool{}
	for i, it := range got.Items {
		if it.Status != 200 {
			t.Fatalf("item %d: status %d", i, it.Status)
		}
		if it.Body.Term != terms[i] {
			t.Fatalf("item %d answers term %q, want %q — positional merge broken", i, it.Body.Term, terms[i])
		}
		replicasSeen[it.Body.Replica] = true
	}
	if len(replicasSeen) < 2 {
		t.Errorf("batch of %d terms touched %d replicas; scatter is not spreading", len(terms), len(replicasSeen))
	}
}

// TestScatterShardFailureIsolated kills one replica: its items come back
// as per-item 503s while other shards' answers are untouched.
func TestScatterShardFailureIsolated(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := testRouter(t, fakes, func(o *Options) {
		o.Retry.MaxRetries = 0 // fail fast; this test wants the failure shape
	})
	victim := fakes[1]
	victim.srv.Close()
	terms := make([]string, 30)
	queries := make([]map[string]any, len(terms))
	for i := range terms {
		terms[i] = fmt.Sprintf("term-%d", i)
		queries[i] = map[string]any{"term": terms[i]}
	}
	body, _ := json.Marshal(map[string]any{"queries": queries})
	resp, respBody := post(t, rt.Handler(), "/relax/batch", string(body))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, respBody)
	}
	var got struct {
		Items []struct {
			Status int             `json:"status"`
			Body   json.RawMessage `json:"body"`
		} `json:"items"`
	}
	if err := json.Unmarshal(respBody, &got); err != nil {
		t.Fatal(err)
	}
	ok, failed := 0, 0
	for i, it := range got.Items {
		switch it.Status {
		case 200:
			ok++
		case http.StatusServiceUnavailable:
			failed++
		default:
			t.Fatalf("item %d: unexpected status %d", i, it.Status)
		}
	}
	if ok == 0 {
		t.Error("no items survived one shard failure")
	}
	if failed == 0 {
		t.Error("expected the dead shard's items to fail as 503s")
	}
}

// TestBatchValidationMirrorsReplica pins the router-level 400/413 bodies
// to the exact bytes a single replica produces.
func TestBatchValidationMirrorsReplica(t *testing.T) {
	rt := testRouter(t, []*fakeReplica{newFakeReplica(t, "a")}, nil)
	h := rt.Handler()

	resp, body := post(t, h, "/relax/batch", `{"queries":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	if want := `{"error":"queries must be a non-empty array"}` + "\n"; string(body) != want {
		t.Fatalf("empty batch body %q, want %q", body, want)
	}

	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < 257; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"term":"t%d"}`, i)
	}
	sb.WriteString(`]}`)
	resp, body = post(t, h, "/relax/batch", sb.String())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: status %d", resp.StatusCode)
	}
	if want := `{"error":"batch of 257 exceeds limit of 256"}` + "\n"; string(body) != want {
		t.Fatalf("oversize batch body %q, want %q", body, want)
	}
}

// TestHealthzReportsReplicaCounts checks the router's own liveness shape.
func TestHealthzReportsReplicaCounts(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	rt := testRouter(t, fakes, nil)
	resp, body := get(t, rt.Handler(), "/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got struct {
		Status          string `json:"status"`
		ReplicasHealthy int    `json:"replicasHealthy"`
		ReplicasTotal   int    `json:"replicasTotal"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" || got.ReplicasHealthy != 2 || got.ReplicasTotal != 2 {
		t.Fatalf("healthz = %+v", got)
	}
}

// TestActiveProbeRecoversReplica marks a replica down, then lets the
// active prober observe it healthy again and requires traffic to return.
func TestActiveProbeRecoversReplica(t *testing.T) {
	fake := newFakeReplica(t, "a")
	rt := testRouter(t, []*fakeReplica{fake}, func(o *Options) {
		o.ProbeInterval = 5 * time.Millisecond
		o.FailAfter = 1
	})
	rt.health.ReportFailure(fake.addr())
	if rt.ReplicaHealthy(fake.addr()) {
		t.Fatal("replica should be down after forced failure")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rt.ReplicaHealthy(fake.addr()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("active probe never restored the healthy replica")
}

// TestMetricsExposeRouterSeries scrapes /metrics and requires the
// router-labelled families to be present after traffic.
func TestMetricsExposeRouterSeries(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	rt := testRouter(t, fakes, nil)
	h := rt.Handler()
	get(t, h, "/relax?term=fever")
	body, _ := json.Marshal(map[string]any{"queries": []map[string]any{{"term": "x"}, {"term": "y"}}})
	post(t, h, "/relax/batch", string(body))
	_, scrape := get(t, h, "/metrics")
	for _, want := range []string{
		"kbrouter_http_requests_total",
		"kbrouter_replica_requests_total",
		"kbrouter_replica_inflight",
		"kbrouter_replica_healthy",
		"kbrouter_scatter_shards_bucket",
		"kbrouter_http_request_seconds_bucket",
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("metrics scrape missing %s", want)
		}
	}
}
