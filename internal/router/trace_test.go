package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"medrelax/internal/dialog"
	"medrelax/internal/server"
	"medrelax/internal/serving"
	"medrelax/internal/trace"
)

const testTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
const testTraceID = "0af7651916cd43dd8448eb211c80319c"

// traceFake wraps a fakeReplica's /relax with a replica-side tracer, the
// way a real kbserver would behave: join the incoming trace context,
// record a kernel span, and back-haul it on the response header.
func traceFake(f *fakeReplica, tracer *trace.Tracer) {
	f.relax = func(w http.ResponseWriter, r *http.Request) bool {
		_, sp := tracer.StartRequest(r.Context(), r.Header, "server /relax")
		k := sp.StartChild("relax.kernel")
		k.SetTag("path", "live_path")
		k.End()
		if enc, _ := sp.EncodeFinished(); enc != "" {
			w.Header().Set(trace.SpansHeader, enc)
		}
		sp.End()
		return false // fall through to the default echo response
	}
}

// TestTracePropagationSurvivesFailover kills the replica owning a term
// and requires the client's trace context to arrive intact at the
// surviving replica, with the failover walk visible as attempt spans in
// one router trace.
func TestTracePropagationSurvivesFailover(t *testing.T) {
	rec := trace.NewRecorder(16, 4)
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	replicaTracer := trace.NewTracer("kbserver", 0, nil)
	for _, f := range fakes {
		traceFake(f, replicaTracer)
	}
	rt := testRouter(t, fakes, func(o *Options) {
		o.FailAfter = 1
		o.Tracer = trace.NewTracer("kbrouter", 0, rec)
	})
	h := rt.Handler()

	victim := fakes[0]
	var term string
	for i := 0; ; i++ {
		term = "probe-" + strings.Repeat("x", i%3) + string(rune('a'+i%26))
		if rt.ring.Owners(routingKey("", term), 1)[0] == victim.addr() {
			break
		}
		if i > 10000 {
			t.Fatal("no term owned by victim replica")
		}
	}
	victim.srv.Close()

	reqRec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/relax?term="+term, nil)
	req.Header.Set(trace.TraceparentHeader, testTraceparent)
	h.ServeHTTP(reqRec, req)
	if reqRec.Code != 200 {
		t.Fatalf("status %d after failover: %s", reqRec.Code, reqRec.Body.String())
	}
	// The backhaul header is router-internal; it must never leak to the
	// client through the proxy's response copy.
	if reqRec.Header().Get(trace.SpansHeader) != "" {
		t.Error("span backhaul header leaked through the router to the client")
	}

	traces, _ := rec.Snapshot(false)
	if len(traces) != 1 {
		t.Fatalf("router recorded %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != testTraceID {
		t.Fatalf("router trace id %s, want the client-minted %s", tr.TraceID, testTraceID)
	}

	var attempts, kernels int
	outcomes := map[string]int{}
	services := map[string]bool{}
	for _, s := range tr.Spans {
		services[s.Service] = true
		switch s.Name {
		case "router.attempt":
			attempts++
			outcomes[s.Tag("outcome")]++
			if s.Tag("replica") == "" {
				t.Error("attempt span missing replica tag")
			}
		case "relax.kernel":
			kernels++
			if s.Tag("path") != "live_path" {
				t.Errorf("kernel span path %q, want live_path", s.Tag("path"))
			}
		}
	}
	if attempts < 2 {
		t.Fatalf("trace shows %d attempts, want >= 2 (failed + failover)", attempts)
	}
	if outcomes["transport_error"] < 1 || outcomes["ok"] != 1 {
		t.Fatalf("attempt outcomes %v, want >=1 transport_error and exactly 1 ok", outcomes)
	}
	if kernels != 1 {
		t.Fatalf("trace shows %d replica kernel spans, want 1 (adopted via backhaul)", kernels)
	}
	if !services["kbrouter"] || !services["kbserver"] {
		t.Fatalf("trace services %v, want both kbrouter and kbserver", services)
	}
}

// TestScatterBatchTraceCoversShards drives a traced /relax/batch across
// three replicas and requires one trace holding the admission span, a
// shard span per replica touched, and the adopted replica spans — the
// in-process version of CI's trace-smoke assertion.
func TestScatterBatchTraceCoversShards(t *testing.T) {
	rec := trace.NewRecorder(16, 4)
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	rt := testRouter(t, fakes, func(o *Options) {
		o.Tracer = trace.NewTracer("kbrouter", 0, rec)
	})
	h := rt.Handler()

	body := `{"queries":[{"term":"fever"},{"term":"cough"},{"term":"rash"},{"term":"nausea"},{"term":"chills"},{"term":"ache"}]}`
	reqRec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/relax/batch", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.TraceparentHeader, testTraceparent)
	h.ServeHTTP(reqRec, req)
	if reqRec.Code != 200 {
		t.Fatalf("batch status %d: %s", reqRec.Code, reqRec.Body.String())
	}
	var resp struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(reqRec.Body.Bytes(), &resp); err != nil || len(resp.Items) != 6 {
		t.Fatalf("batch response malformed (%v): %s", err, reqRec.Body.String())
	}

	traces, _ := rec.Snapshot(false)
	if len(traces) != 1 {
		t.Fatalf("router recorded %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != testTraceID {
		t.Fatalf("trace id %s, want %s", tr.TraceID, testTraceID)
	}
	var admission, shards int
	shardReplicas := map[string]bool{}
	for _, s := range tr.Spans {
		switch s.Name {
		case "router.admission":
			admission++
			if s.Tag("outcome") != "admitted" {
				t.Errorf("admission outcome %q, want admitted", s.Tag("outcome"))
			}
		case "router.shard":
			shards++
			shardReplicas[s.Tag("replica")] = true
			if s.Tag("outcome") != "ok" {
				t.Errorf("shard outcome %q, want ok", s.Tag("outcome"))
			}
		}
	}
	if admission != 1 {
		t.Fatalf("trace shows %d admission spans, want 1", admission)
	}
	if shards < 1 || shards != len(shardReplicas) {
		t.Fatalf("trace shows %d shard spans over %d replicas, want one span per distinct replica",
			shards, len(shardReplicas))
	}
	if tr.Root != "router /relax/batch" {
		t.Fatalf("root span %q, want router /relax/batch", tr.Root)
	}
}

// TestUntracedRequestRecordsNothing pins the sampling contract: with
// self-sampling disabled and no client traceparent, no trace is recorded
// and no trace headers travel.
func TestUntracedRequestRecordsNothing(t *testing.T) {
	rec := trace.NewRecorder(16, 4)
	fake := newFakeReplica(t, "a")
	var sawTraceparent bool
	fake.relax = func(_ http.ResponseWriter, r *http.Request) bool {
		if r.Header.Get(trace.TraceparentHeader) != "" {
			sawTraceparent = true
		}
		return false
	}
	rt := testRouter(t, []*fakeReplica{fake}, func(o *Options) {
		o.Tracer = trace.NewTracer("kbrouter", 0, rec)
	})
	resp, body := get(t, rt.Handler(), "/relax?term=fever")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if _, total := rec.Snapshot(false); total != 0 {
		t.Fatalf("untraced request recorded %d traces", total)
	}
	if sawTraceparent {
		t.Error("untraced request carried a traceparent header to the replica")
	}
}

// spanningBackend answers every item with one result and finishes a kernel
// span per item, as a traced uncached batch does on a real replica.
type spanningBackend struct{}

func (spanningBackend) RelaxBatch(ctx context.Context, reqs []server.Request) []server.Response {
	out := make([]server.Response, len(reqs))
	for i, req := range reqs {
		k := trace.FromContext(ctx).StartChild("relax.kernel")
		k.SetTag("path", "live_path")
		k.SetTag("term", req.Term)
		k.End()
		out[i] = server.Response{Results: []server.RelaxResult{{Concept: req.Term, Score: 1, Instances: []string{"i"}}}}
	}
	return out
}

func (spanningBackend) Terms(int) []string { return nil }
func (spanningBackend) NewConversation() (*dialog.Conversation, error) {
	return nil, errors.New("no conversations")
}
func (spanningBackend) Stats() map[string]any { return map[string]any{} }

// TestBatchBackhaulCapped drives a traced 256-item batch through
// router.Handler to one real replica stack: the replica's span header stays
// within its cap, the replica's root span counts what it dropped, and the
// router's trace holds exactly the kernel spans that fit.
func TestBatchBackhaulCapped(t *testing.T) {
	replicaRec := trace.NewRecorder(16, 4)
	opts := serving.DefaultOptions()
	opts.Tracer = trace.NewTracer("kbserver", 0, replicaRec)
	eng := serving.NewEngine(spanningBackend{}, opts)
	stack := eng.Handler(server.New(eng).Handler())
	var header atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stack.ServeHTTP(w, r)
		header.Store(int64(len(w.Header().Get(trace.SpansHeader))))
	}))
	defer replica.Close()

	routerRec := trace.NewRecorder(16, 4)
	ropts := DefaultOptions()
	ropts.Replicas = []string{strings.TrimPrefix(replica.URL, "http://")}
	ropts.ProbeInterval = 0
	ropts.Tracer = trace.NewTracer("kbrouter", 0, routerRec)
	rt := New(ropts)
	rt.Start()
	defer rt.Stop()

	queries := make([]server.Request, server.MaxBatchItems)
	for i := range queries {
		queries[i] = server.Request{Term: "term-" + strconv.Itoa(i), K: 3}
	}
	payload, _ := json.Marshal(server.BatchRequest{Queries: queries})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/relax/batch", strings.NewReader(string(payload)))
	req.Header.Set(trace.TraceparentHeader, testTraceparent)
	rt.Handler().ServeHTTP(rec, req)
	var resp struct {
		Items []server.BatchItemResponse `json:"items"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || len(resp.Items) != len(queries) {
		t.Fatalf("batch: status %d, %d items (%v)", rec.Code, len(resp.Items), err)
	}
	if n := header.Load(); n == 0 || n > trace.MaxSpansHeaderBytes {
		t.Fatalf("replica span header of %d bytes, want 1..%d", n, trace.MaxSpansHeaderBytes)
	}

	replicaTraces, _ := replicaRec.Snapshot(false)
	if len(replicaTraces) != 1 {
		t.Fatalf("replica recorded %d traces, want 1", len(replicaTraces))
	}
	var dropped int
	for _, s := range replicaTraces[0].Spans {
		if s.Name == "server /relax/batch" {
			dropped, _ = strconv.Atoi(s.Tag("backhaul_dropped"))
		}
	}
	if dropped == 0 {
		t.Fatal("replica root span carries no backhaul_dropped tag")
	}
	routerTraces, _ := routerRec.Snapshot(false)
	if len(routerTraces) != 1 {
		t.Fatalf("router recorded %d traces, want 1", len(routerTraces))
	}
	kernels := 0
	for _, s := range routerTraces[0].Spans {
		if s.Name == "relax.kernel" {
			kernels++
		}
	}
	// The admission and cache spans finish first and always fit, so the
	// dropped spans are all kernel spans.
	if kernels == 0 || kernels+dropped != len(queries) {
		t.Fatalf("router trace holds %d kernel spans with %d dropped, want %d in all", kernels, dropped, len(queries))
	}
}
