package trace

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"medrelax/internal/serving/metrics"
)

func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", true},
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", true},
		{"", false},
		{"garbage", false},
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-1", false},  // short flags
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-01", false},  // short parent
		{"00-00000000000000000000000000000000-b7ad6b7169203331-01", false}, // zero trace id
		{"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false}, // zero parent
		{"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false}, // reserved version
		{"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", false}, // uppercase hex
		{"00x0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false}, // bad separator
	}
	for _, c := range cases {
		id, par, flags, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok=%v, want %v", c.in, ok, c.ok)
		}
		if c.ok {
			if len(id) != 32 || len(par) != 16 {
				t.Errorf("ParseTraceparent(%q) id=%q parent=%q", c.in, id, par)
			}
			if strings.HasSuffix(c.in, "-01") && flags&0x01 == 0 {
				t.Errorf("ParseTraceparent(%q) lost sampled flag", c.in)
			}
		}
	}
}

func TestNewTraceparentRoundTrip(t *testing.T) {
	hdr, traceID := NewTraceparent()
	id, _, flags, ok := ParseTraceparent(hdr)
	if !ok || id != traceID || flags&0x01 == 0 {
		t.Fatalf("NewTraceparent produced unparseable header %q (ok=%v id=%q flags=%#x)", hdr, ok, id, flags)
	}
}

func TestSamplingHonorsHeaderAndCounter(t *testing.T) {
	rec := NewRecorder(16, 4)
	tr := NewTracer("test", 4, rec)

	// Explicit sampled header always traces.
	h := http.Header{}
	h.Set(TraceparentHeader, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	_, sp := tr.StartRequest(context.Background(), h, "req")
	if sp == nil {
		t.Fatal("sampled traceparent not honored")
	}
	if sp.TraceID != "0af7651916cd43dd8448eb211c80319c" || sp.Parent != "b7ad6b7169203331" {
		t.Fatalf("trace context not joined: %+v", sp)
	}

	// Explicitly unsampled header is never traced.
	h.Set(TraceparentHeader, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	if _, sp := tr.StartRequest(context.Background(), h, "req"); sp != nil {
		t.Fatal("unsampled traceparent was traced")
	}

	// No header: exactly 1 in 4 self-sampled.
	n := 0
	for i := 0; i < 40; i++ {
		if _, sp := tr.StartRequest(context.Background(), http.Header{}, "req"); sp != nil {
			n++
		}
	}
	if n != 10 {
		t.Fatalf("self-sampled %d of 40, want 10", n)
	}

	// sampleEvery=0 disables self-sampling but still honors headers.
	tr0 := NewTracer("test", 0, rec)
	if _, sp := tr0.StartRequest(context.Background(), http.Header{}, "req"); sp != nil {
		t.Fatal("sampleEvery=0 self-sampled")
	}
	h.Set(TraceparentHeader, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if _, sp := tr0.StartRequest(context.Background(), h, "req"); sp == nil {
		t.Fatal("sampleEvery=0 rejected explicit sampled header")
	}
}

func TestTraceAssemblyAndRecorder(t *testing.T) {
	rec := NewRecorder(4, 2)
	tr := NewTracer("svc", 1, rec)
	reg := metrics.NewRegistry()
	tr.BindMetrics(reg, "svc")

	ctx, root := tr.StartRequest(context.Background(), http.Header{}, "server relax")
	root.SetTag("tenant", "acme")
	child := FromContext(ctx).StartChild("relax.kernel")
	child.SetTag("path", "materialized_hit")
	child.End()
	root.End()

	traces, total := rec.Snapshot(false)
	if total != 1 || len(traces) != 1 {
		t.Fatalf("recorder holds %d traces (total %d), want 1", len(traces), total)
	}
	got := traces[0]
	if got.Tenant != "acme" || got.Root != "server relax" || got.Service != "svc" {
		t.Fatalf("trace metadata wrong: %+v", got)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(got.Spans))
	}
	var kernel *Span
	for _, s := range got.Spans {
		if s.Name == "relax.kernel" {
			kernel = s
		}
	}
	if kernel == nil || kernel.Parent != root.ID || kernel.Tag("path") != "materialized_hit" {
		t.Fatalf("kernel span wrong: %+v", kernel)
	}

	var buf strings.Builder
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "svc_trace_spans") || !strings.Contains(buf.String(), "svc_trace_duration_seconds") {
		t.Fatalf("trace histograms missing from registry:\n%s", buf.String())
	}
}

func TestBackhaulEncodeAdopt(t *testing.T) {
	rec := NewRecorder(4, 2)

	// Replica side: trace a request, finish its spans, encode.
	replica := NewTracer("kbserver", 1, NewRecorder(4, 2))
	h := http.Header{}
	h.Set(TraceparentHeader, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	_, rsp := replica.StartRequest(context.Background(), h, "server relax")
	k := rsp.StartChild("relax.kernel")
	k.SetTag("path", "live_path")
	k.End()
	enc, dropped := rsp.EncodeFinished()
	if enc == "" || dropped != 0 {
		t.Fatalf("EncodeFinished = %q, %d dropped with one finished span", enc, dropped)
	}
	rsp.End()

	// Router side: adopt the replica spans into its own trace.
	router := NewTracer("kbrouter", 1, rec)
	_, root := router.StartRequest(context.Background(), http.Header{}, "router relax")
	att := root.StartChild("router.attempt")
	att.AdoptEncoded(enc)
	att.End()
	root.End()

	traces, _ := rec.Snapshot(false)
	if len(traces) != 1 {
		t.Fatalf("router recorder holds %d traces, want 1", len(traces))
	}
	services := map[string]bool{}
	names := map[string]bool{}
	for _, s := range traces[0].Spans {
		services[s.Service] = true
		names[s.Name] = true
	}
	if !services["kbrouter"] || !services["kbserver"] {
		t.Fatalf("adopted trace missing a service: %v", services)
	}
	if !names["relax.kernel"] {
		t.Fatalf("adopted trace missing replica kernel span: %v", names)
	}

	// Malformed payloads are ignored, never fatal.
	_, root2 := router.StartRequest(context.Background(), http.Header{}, "router relax")
	root2.AdoptEncoded("%%%not-base64%%%")
	root2.AdoptEncoded("aGVsbG8=") // base64 of "hello", not JSON
	root2.End()
}

// TestBackhaulCappedInFinishOrder finishes more spans than one header holds:
// the value stays within MaxSpansHeaderBytes, decodes to the first spans to
// finish, in order, and the rest are counted as dropped.
func TestBackhaulCappedInFinishOrder(t *testing.T) {
	tracer := NewTracer("kbserver", 1, nil)
	_, root := tracer.StartRequest(context.Background(), http.Header{}, "server /relax/batch")
	const n = 400
	for i := 0; i < n; i++ {
		k := root.StartChild("relax.kernel")
		k.SetTag("item", strconv.Itoa(i))
		k.End()
	}
	enc, dropped := root.EncodeFinished()
	if len(enc) > MaxSpansHeaderBytes || dropped == 0 || dropped == n {
		t.Fatalf("header of %d bytes with %d of %d spans dropped; want within %d and some dropped", len(enc), dropped, n, MaxSpansHeaderBytes)
	}
	raw, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		t.Fatal(err)
	}
	var spans []*Span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans)+dropped != n {
		t.Fatalf("%d spans kept + %d dropped, want %d", len(spans), dropped, n)
	}
	for i, sp := range spans {
		if sp.Tag("item") != strconv.Itoa(i) {
			t.Fatalf("kept span %d is item %q: not the finish-order prefix", i, sp.Tag("item"))
		}
	}
}

func TestRecorderRingAndExemplars(t *testing.T) {
	rec := NewRecorder(2, 2)
	mk := func(id string, ms float64) *Trace {
		return &Trace{TraceID: id, DurationMs: ms, Start: time.Now()}
	}
	rec.add(mk("a", 100)) // slowest ever; will cycle out of the ring
	rec.add(mk("b", 1))
	rec.add(mk("c", 2))
	rec.add(mk("d", 3))

	traces, total := rec.Snapshot(false)
	if total != 4 || len(traces) != 2 {
		t.Fatalf("ring: got %d traces total %d, want 2/4", len(traces), total)
	}
	if traces[0].TraceID != "d" || traces[1].TraceID != "c" {
		t.Fatalf("ring order wrong: %s, %s", traces[0].TraceID, traces[1].TraceID)
	}
	slow, _ := rec.Snapshot(true)
	if len(slow) != 2 || slow[0].TraceID != "a" || slow[1].TraceID != "d" {
		t.Fatalf("exemplars wrong: %+v", slow)
	}
}

func TestDebugTracesHandler(t *testing.T) {
	rec := NewRecorder(8, 4)
	rec.add(&Trace{TraceID: "aaa", Tenant: "t1", DurationMs: 5, Start: time.Now()})
	rec.add(&Trace{TraceID: "bbb", Tenant: "t2", DurationMs: 50, Start: time.Now()})

	get := func(q string) string {
		w := httptest.NewRecorder()
		rec.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces"+q, nil))
		if w.Code != 200 {
			t.Fatalf("GET /debug/traces%s: %d", q, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content-type %q", ct)
		}
		return w.Body.String()
	}

	all := get("")
	if !strings.Contains(all, "aaa") || !strings.Contains(all, "bbb") || !strings.Contains(all, `"total": 2`) {
		t.Fatalf("unfiltered output wrong:\n%s", all)
	}
	if out := get("?min_ms=10"); strings.Contains(out, "aaa") || !strings.Contains(out, "bbb") {
		t.Fatalf("min_ms filter wrong:\n%s", out)
	}
	if out := get("?tenant=t1"); !strings.Contains(out, "aaa") || strings.Contains(out, "bbb") {
		t.Fatalf("tenant filter wrong:\n%s", out)
	}
	if out := get("?trace=bbb"); strings.Contains(out, "aaa") || !strings.Contains(out, "bbb") {
		t.Fatalf("trace filter wrong:\n%s", out)
	}
	if out := get("?slow=1&limit=1"); !strings.Contains(out, "bbb") || strings.Contains(out, "aaa") {
		t.Fatalf("slow+limit wrong:\n%s", out)
	}

	// Nil recorder 404s rather than panicking.
	var nilRec *Recorder
	w := httptest.NewRecorder()
	nilRec.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("nil recorder returned %d", w.Code)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRequest(context.Background(), http.Header{}, "x")
	if sp != nil || ctx == nil {
		t.Fatal("nil tracer must return (ctx, nil)")
	}
	if tr.Recorder() != nil {
		t.Fatal("nil tracer recorder must be nil")
	}
	tr.BindMetrics(metrics.NewRegistry(), "x")

	var s *Span
	s.SetTag("a", "b")
	s.End()
	s.Inject(http.Header{})
	s.AdoptEncoded("x")
	if enc, dropped := s.EncodeFinished(); s.StartChild("y") != nil || enc != "" || dropped != 0 || s.Tag("a") != "" {
		t.Fatal("nil span methods must no-op")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on bare ctx must be nil")
	}
	if ContextWithSpan(context.Background(), nil) != context.Background() {
		t.Fatal("ContextWithSpan(nil) must return ctx unchanged")
	}
}

// TestUntracedPathZeroAllocs is the benchmem gate in unit-test form: a
// request that loses the sampling roll must not allocate anywhere on
// the trace path.
func TestUntracedPathZeroAllocs(t *testing.T) {
	tr := NewTracer("svc", 1<<30, nil)
	h := http.Header{}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := tr.StartRequest(ctx, h, "req")
		s := FromContext(c)
		s.SetTag("k", "v")
		child := s.StartChild("x")
		child.End()
		Inject(c, h)
		s.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkUntracedOverhead is scraped by CI's benchmem gate: it must
// report 0 allocs/op.
func BenchmarkUntracedOverhead(b *testing.B) {
	tr := NewTracer("svc", 0, nil)
	h := http.Header{}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _ := tr.StartRequest(ctx, h, "req")
		s := FromContext(c)
		s.SetTag("k", "v")
		child := s.StartChild("x")
		child.End()
		s.End()
	}
}
