package serving

import (
	"context"
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"medrelax/internal/server"
	"medrelax/internal/serving/metrics"
	"medrelax/internal/trace"
)

// trackedEndpoints get per-endpoint latency histograms and request
// counters; anything else is folded into "other" to keep label
// cardinality bounded.
var trackedEndpoints = []string{"/relax", "/relax/batch", "/chat", "/stats", "/healthz", "/terms"}

const httpLatencyHelp = "HTTP request latency by endpoint"

// Handler mounts the serving endpoints (GET /metrics, POST /admin/reload)
// and wraps the API handler with admission control and instrumentation.
func (e *Engine) Handler(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	mux.HandleFunc("POST /admin/reload", e.handleReload)
	mux.Handle("GET /debug/traces", e.opts.Tracer.Recorder())
	api = e.instrument(api)
	mux.Handle("/", api)
	// The relax endpoints are also matched as literals: ServeMux allocates
	// for every literal it tries and fails before falling back to "/".
	mux.Handle("GET /relax", api)
	mux.Handle("POST /relax/batch", api)
	return mux
}

func (e *Engine) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.syncGeometry()
	if err := e.reg.WritePrometheus(w); err != nil {
		log.Printf("serving: writing metrics: %v", err)
	}
}

func (e *Engine) handleReload(w http.ResponseWriter, _ *http.Request) {
	if err := e.Reload(); err != nil {
		status := http.StatusInternalServerError
		if e.opts.Loader == nil {
			status = http.StatusNotImplemented
		}
		server.WriteError(w, status, err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "reloaded",
		"generation": e.cur.Load().gen,
	})
}

// statusRecorder captures the response code for metrics and logging. On
// traced requests it also attaches the spans finished so far as a
// response header just before the headers flush, so an upstream router
// can merge replica-side timing into its own trace; spans past the
// header's cap are counted on the root span as backhaul_dropped.
type statusRecorder struct {
	http.ResponseWriter
	status int
	span   *trace.Span
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.wrote = true
		enc, dropped := r.span.EncodeFinished()
		if enc != "" {
			r.Header().Set(trace.SpansHeader, enc)
		}
		if dropped > 0 {
			r.span.SetTag("backhaul_dropped", strconv.Itoa(dropped))
		}
	}
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.WriteHeader(http.StatusOK)
	}
	return r.ResponseWriter.Write(b)
}

// endpointSeries is one endpoint's per-request series: its rendered labels
// and root span name, built once, and its latency histogram and per-status
// request counters, each resolved through the registry on first use — when
// the registry would have created it — and held after that.
type endpointSeries struct {
	name    string // the endpoint label value; "other" for untracked paths
	span    string // the root span's name
	labels  string // base labels, then endpoint
	latency atomic.Pointer[metrics.Histogram]
	// requests holds medrelax_http_requests_total by status code; a code
	// past the array is resolved per request.
	requests [600]atomic.Pointer[metrics.Counter]
}

func (e *Engine) newEndpointSeries(name string) *endpointSeries {
	return &endpointSeries{name: name, span: "server " + name, labels: e.labels(metrics.Label("endpoint", name))}
}

// observe records one finished request.
func (s *endpointSeries) observe(reg *metrics.Registry, status int, dur time.Duration) {
	h := s.latency.Load()
	if h == nil {
		h = reg.Histogram("medrelax_http_request_seconds", httpLatencyHelp, s.labels)
		s.latency.Store(h)
	}
	h.Observe(dur.Seconds())
	var c *metrics.Counter
	if status >= 0 && status < len(s.requests) {
		c = s.requests[status].Load()
	}
	if c == nil {
		// Registration is idempotent: a racing first use stores the same series.
		c = reg.Counter("medrelax_http_requests_total", "HTTP requests by endpoint and status code",
			s.labels+",code=\""+strconv.Itoa(status)+"\"")
		if status >= 0 && status < len(s.requests) {
			s.requests[status].Store(c)
		}
	}
	c.Inc()
}

// instrument applies, per request: inflight accounting, the concurrency
// cap (shed with 429 + Retry-After), per-endpoint deadlines, chat
// body-size and rate guards, latency histograms, and the slow-query log.
func (e *Engine) instrument(next http.Handler) http.Handler {
	inflight := e.reg.Gauge("medrelax_http_inflight", "requests currently being served", e.labels(""))
	tracked := make([]*endpointSeries, len(trackedEndpoints))
	for i, ep := range trackedEndpoints {
		tracked[i] = e.newEndpointSeries(ep)
	}
	other := e.newEndpointSeries("other")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := other
		for _, s := range tracked {
			if s.name == r.URL.Path {
				ep = s
				break
			}
		}
		endpoint := ep.name
		inflight.Inc()
		defer inflight.Dec()

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		tctx, root := e.opts.Tracer.StartRequest(r.Context(), r.Header, ep.span)
		if root != nil {
			if e.opts.Tenant != "" {
				root.SetTag("tenant", e.opts.Tenant)
			}
			rec.span = root
			r = r.WithContext(tctx)
			defer func() {
				root.SetTag("status", strconv.Itoa(rec.status))
				root.End()
			}()
		}

		limited := endpoint == "/relax" || endpoint == "/relax/batch" || endpoint == "/chat"
		if limited {
			adm := root.StartChild("serving.admission")
			if !e.limiter.TryAcquire() {
				adm.SetTag("outcome", "shed")
				adm.End()
				e.shed(rec, ep.labels, "over concurrency limit")
				return
			}
			adm.SetTag("outcome", "admitted")
			adm.End()
			defer e.limiter.Release()
		}
		var timeout time.Duration
		switch endpoint {
		case "/relax", "/relax/batch":
			timeout = e.opts.RelaxTimeout
		case "/chat":
			timeout = e.opts.ChatTimeout
			if !e.chatRate.allow() {
				e.shed(rec, ep.labels, "over rate limit")
				return
			}
			maxBody := e.opts.MaxChatBody
			if maxBody <= 0 {
				maxBody = 1 << 20
			}
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}

		start := time.Now()
		next.ServeHTTP(rec, r)
		dur := time.Since(start)

		ep.observe(e.reg, rec.status, dur)
		if e.opts.SlowQuery > 0 && dur >= e.opts.SlowQuery {
			e.logSlow(r, endpoint, ep.labels, rec.status, dur)
		}
	})
}

// shedRetryAfter is the Retry-After, in seconds, a shed response carries.
const shedRetryAfter = "1"

// shed rejects with 429 + Retry-After: the one response shape that tells
// a well-behaved client exactly what to do, at near-zero server cost.
func (e *Engine) shed(w http.ResponseWriter, labels, reason string) {
	w.Header().Set("Retry-After", shedRetryAfter)
	server.WriteError(w, http.StatusTooManyRequests, "server overloaded: "+reason)
	e.reg.Counter("medrelax_http_shed_total", "requests shed by admission control", labels).Inc()
}

// logSlow emits one structured line per slow request so tail-latency
// offenders can be grepped out of production logs.
func (e *Engine) logSlow(r *http.Request, endpoint, labels string, status int, dur time.Duration) {
	fields := map[string]any{
		"slow_query": true,
		"endpoint":   endpoint,
		"query":      r.URL.RawQuery,
		"status":     status,
		"ms":         dur.Milliseconds(),
	}
	// A traced slow request carries its trace id, linking the log line to
	// the exemplar retained at /debug/traces?slow=1.
	if sp := trace.FromContext(r.Context()); sp != nil {
		fields["trace"] = sp.TraceID
	}
	line, err := json.Marshal(fields)
	if err != nil {
		return
	}
	e.reg.Counter("medrelax_http_slow_total", "requests over the slow-query threshold", labels).Inc()
	log.Print(string(line))
}
