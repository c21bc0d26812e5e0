// Package trace is the hand-rolled distributed tracing layer for the
// serving tiers — the observability counterpart to the hand-rolled
// metrics registry, with the same no-dependency discipline. A W3C-style
// traceparent header is minted at the edge (router or replica) for one
// in N requests, or accepted from clients, and the resulting span tree
// is threaded through context.Context: router admission, per-replica
// attempts, scatter shard legs, replica admission/cache, and the relax
// kernel itself. Completed traces land in a bounded per-process ring
// buffer served at GET /debug/traces (see Recorder).
//
// Replica-side spans additionally ride back to the router on a response
// header (SpansHeader), so one router trace shows the whole request
// path across processes without a collector.
//
// The untraced hot path costs one context value lookup and nothing
// else: every Span method is nil-safe, a request that is not sampled
// carries no span, and no allocation happens until a sampling decision
// says yes. CI pins this at zero allocs/op.
package trace

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"medrelax/internal/serving/metrics"
)

// TraceparentHeader is the W3C trace-context request header:
// version-traceid-parentid-flags, e.g.
// 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01.
const TraceparentHeader = "Traceparent"

// SpansHeader carries a replica's finished spans back to the router on
// sampled responses (base64 JSON). The router strips it when merging;
// it never reaches clients through the proxy (copyResponse relays only
// Content-Type and Retry-After).
const SpansHeader = "Medrelax-Spans"

// MaxSpansHeaderBytes caps one SpansHeader value. A traced 256-item batch
// finishes a kernel span per item; shipped whole, that header outgrows what
// proxies and clients accept (commonly 8–64 KiB for all headers).
const MaxSpansHeaderBytes = 16 << 10

// flagSampled is the only traceparent flag bit this system interprets.
const flagSampled = 0x01

// maxSpansPerTrace bounds one trace's span list so a runaway batch
// cannot make a single ring entry arbitrarily large.
const maxSpansPerTrace = 1024

// Tag is one key/value annotation on a span.
type Tag struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one timed operation within a trace. Fields are exported for
// JSON rendering; mutate only through StartChild/SetTag/End. A span is
// owned by the goroutine that started it until End, which hands it to
// the trace's collector.
type Span struct {
	Name    string  `json:"name"`
	Service string  `json:"service"`
	ID      string  `json:"spanId"`
	Parent  string  `json:"parent,omitempty"`
	Start   int64   `json:"startUnixNano"`
	DurMs   float64 `json:"durationMs"`
	Tags    []Tag   `json:"tags,omitempty"`

	// TraceID is carried per-trace in the recorder output; spans keep it
	// for the slow-log linkage and header injection.
	TraceID string `json:"-"`

	tr    *active
	start time.Time
}

// active collects one in-flight trace's finished spans; the root span's
// End hands the whole set to the tracer.
type active struct {
	tracer *Tracer

	mu      sync.Mutex
	root    *Span
	spans   []*Span
	dropped int
}

// spanKey carries the current span through context.Context. A context
// without the key is the untraced fast path: FromContext returns nil
// and every downstream span operation no-ops without allocating.
type spanKey struct{}

// FromContext returns the span the request is currently inside, or nil
// when the request is not sampled.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ContextWithSpan threads a span (typically a fresh child) into ctx so
// deeper layers parent onto it. A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// StartChild opens a sub-span under s. Nil-safe: an untraced request
// flows through as nil all the way down.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	return &Span{
		Name:    name,
		Service: s.Service,
		ID:      newSpanID(),
		Parent:  s.ID,
		Start:   now.UnixNano(),
		TraceID: s.TraceID,
		tr:      s.tr,
		start:   now,
	}
}

// SetTag annotates the span. Call only from the goroutine that owns the
// span, before End.
func (s *Span) SetTag(k, v string) {
	if s == nil {
		return
	}
	s.Tags = append(s.Tags, Tag{K: k, V: v})
}

// Tag returns the value of the named tag ("" when absent).
func (s *Span) Tag(k string) string {
	if s == nil {
		return ""
	}
	for _, t := range s.Tags {
		if t.K == k {
			return t.V
		}
	}
	return ""
}

// End closes the span and hands it to the trace collector. Ending the
// root span completes the trace: it is assembled, recorded in the ring
// buffer, and observed by the histograms.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	s.DurMs = float64(time.Since(s.start)) / float64(time.Millisecond)
	a := s.tr
	a.mu.Lock()
	if len(a.spans) < maxSpansPerTrace {
		a.spans = append(a.spans, s)
	} else {
		a.dropped++
	}
	root := s == a.root
	a.mu.Unlock()
	if root {
		a.tracer.finish(a)
	}
}

// Inject writes the span's trace context onto an outbound request
// header in traceparent form, with the sampled flag set. Nil-safe.
func (s *Span) Inject(h http.Header) {
	if s == nil {
		return
	}
	h.Set(TraceparentHeader, "00-"+s.TraceID+"-"+s.ID+"-01")
}

// Inject propagates the current span from ctx onto h; no-op when the
// request is untraced.
func Inject(ctx context.Context, h http.Header) {
	FromContext(ctx).Inject(h)
}

// EncodeFinished snapshots the spans finished so far in this span's
// trace as a base64 JSON header value — what a replica attaches to its
// response so the router can merge replica-side timing into its own
// trace. The value holds the longest prefix, in finish order, that fits
// MaxSpansHeaderBytes; dropped counts the spans past it. "" when there is
// nothing to report.
func (s *Span) EncodeFinished() (enc string, dropped int) {
	if s == nil || s.tr == nil {
		return "", 0
	}
	a := s.tr
	a.mu.Lock()
	spans := make([]*Span, len(a.spans))
	copy(spans, a.spans)
	a.mu.Unlock()
	raw := []byte{'['} // the kept spans, each followed by ','
	kept := 0
	for _, sp := range spans {
		b, err := json.Marshal(sp)
		// The array closed after this span: what is kept, the span, ']'.
		if err != nil || base64.StdEncoding.EncodedLen(len(raw)+len(b)+1) > MaxSpansHeaderBytes {
			break
		}
		raw = append(append(raw, b...), ',')
		kept++
	}
	if kept == 0 {
		return "", len(spans)
	}
	raw[len(raw)-1] = ']'
	return base64.StdEncoding.EncodeToString(raw), len(spans) - kept
}

// AdoptEncoded merges spans encoded by EncodeFinished (on the far side
// of a proxied hop) into this span's trace. Malformed input is ignored
// — tracing must never fail a request.
func (s *Span) AdoptEncoded(enc string) {
	if s == nil || s.tr == nil || enc == "" {
		return
	}
	raw, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return
	}
	var spans []*Span
	if err := json.Unmarshal(raw, &spans); err != nil {
		return
	}
	a := s.tr
	a.mu.Lock()
	for _, sp := range spans {
		if sp == nil {
			continue
		}
		sp.TraceID = s.TraceID
		if len(a.spans) >= maxSpansPerTrace {
			a.dropped++
			continue
		}
		a.spans = append(a.spans, sp)
	}
	a.mu.Unlock()
}

// Tracer decides which requests are traced and where finished traces
// go. One Tracer per process; nil is a valid "tracing disabled" value
// for every method.
type Tracer struct {
	service     string
	sampleEvery uint64
	counter     atomic.Uint64
	rec         *Recorder

	spanHist atomic.Pointer[metrics.Histogram]
	durHist  atomic.Pointer[metrics.Histogram]
}

// NewTracer builds a tracer for service (tagged on every span it
// mints). sampleEvery N traces one in N requests that arrive without a
// traceparent header; 0 disables self-sampling, leaving only requests
// whose clients sent a sampled traceparent. rec may be nil (spans are
// timed and propagated but never retained).
func NewTracer(service string, sampleEvery int, rec *Recorder) *Tracer {
	if sampleEvery < 0 {
		sampleEvery = 0
	}
	return &Tracer{service: service, sampleEvery: uint64(sampleEvery), rec: rec}
}

// Recorder returns the tracer's ring buffer (nil when absent or the
// tracer itself is nil) — what /debug/traces serves.
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// BindMetrics registers the tracer's span-count and trace-duration
// histograms in reg under prefix (e.g. "medrelax" or "kbrouter").
// Idempotent; call during process setup, before traffic.
func (t *Tracer) BindMetrics(reg *metrics.Registry, prefix string) {
	if t == nil || reg == nil {
		return
	}
	t.spanHist.Store(reg.HistogramWith(prefix+"_trace_spans", "spans per completed trace", "", metrics.CountBuckets))
	t.durHist.Store(reg.Histogram(prefix+"_trace_duration_seconds", "end-to-end duration of completed traces", ""))
}

// StartRequest is the per-request sampling decision. A valid sampled
// traceparent in h joins that trace; an explicitly unsampled one (flags
// 00) is honored and not traced; no header rolls the 1-in-N die. The
// unsampled return is (ctx, nil) with zero allocations.
func (t *Tracer) StartRequest(ctx context.Context, h http.Header, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var traceID, parent string
	if tp := h.Get(TraceparentHeader); tp != "" {
		id, par, flags, ok := ParseTraceparent(tp)
		if ok {
			if flags&flagSampled == 0 {
				return ctx, nil
			}
			traceID, parent = id, par
		}
	}
	if traceID == "" {
		if t.sampleEvery == 0 || t.counter.Add(1)%t.sampleEvery != 0 {
			return ctx, nil
		}
		traceID = newTraceID()
	}
	now := time.Now()
	a := &active{tracer: t}
	sp := &Span{
		Name:    name,
		Service: t.service,
		ID:      newSpanID(),
		Parent:  parent,
		Start:   now.UnixNano(),
		TraceID: traceID,
		tr:      a,
		start:   now,
	}
	a.root = sp
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// finish assembles a completed trace and records it.
func (t *Tracer) finish(a *active) {
	a.mu.Lock()
	spans := a.spans
	dropped := a.dropped
	root := a.root
	a.spans = nil
	a.mu.Unlock()
	tr := &Trace{
		TraceID:      root.TraceID,
		Root:         root.Name,
		Service:      t.service,
		Tenant:       root.Tag("tenant"),
		Start:        time.Unix(0, root.Start),
		DurationMs:   root.DurMs,
		Spans:        spans,
		SpansDropped: dropped,
	}
	if h := t.spanHist.Load(); h != nil {
		h.Observe(float64(len(spans)))
	}
	if h := t.durHist.Load(); h != nil {
		h.Observe(root.DurMs / 1e3)
	}
	if t.rec != nil {
		t.rec.add(tr)
	}
}

// ParseTraceparent validates a traceparent header value and returns its
// trace-id, parent-id, and flags. ok is false for anything malformed:
// wrong field count, wrong lengths, non-hex, the all-zero ids, or the
// reserved version ff.
func ParseTraceparent(v string) (traceID, parentID string, flags byte, ok bool) {
	// 2 + 1 + 32 + 1 + 16 + 1 + 2
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", "", 0, false
	}
	ver, id, par, fl := v[0:2], v[3:35], v[36:52], v[53:55]
	if !isHex(ver) || !isHex(id) || !isHex(par) || !isHex(fl) {
		return "", "", 0, false
	}
	if ver == "ff" || allZero(id) || allZero(par) {
		return "", "", 0, false
	}
	f, err := hex.DecodeString(fl)
	if err != nil || len(f) != 1 {
		return "", "", 0, false
	}
	return id, par, f[0], true
}

// NewTraceparent mints a sampled traceparent header value for a client
// (cmd/chaos's router drill) that wants its request traced end to end.
// Returns the header value and the embedded trace id.
func NewTraceparent() (header, traceID string) {
	traceID = newTraceID()
	return "00-" + traceID + "-" + newSpanID() + "-01", traceID
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// idRNG seeds span/trace id generation once per process; the global
// locked source keeps concurrent minting safe.
var idMu sync.Mutex
var idRNG = rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(rand.Uint64())))

func randUint64() uint64 {
	idMu.Lock()
	defer idMu.Unlock()
	return idRNG.Uint64()
}

func newTraceID() string {
	var b [16]byte
	for {
		binary.BigEndian.PutUint64(b[:8], randUint64())
		binary.BigEndian.PutUint64(b[8:], randUint64())
		if b != [16]byte{} {
			return hex.EncodeToString(b[:])
		}
	}
}

func newSpanID() string {
	var b [8]byte
	for {
		binary.BigEndian.PutUint64(b[:], randUint64())
		if b != [8]byte{} {
			return hex.EncodeToString(b[:])
		}
	}
}
