package serving

import (
	"context"
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

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
	mux.Handle("/", e.instrument(api))
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
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "reloaded",
		"generation": e.cur.Load().gen,
	})
}

// statusRecorder captures the response code for metrics and logging. On
// traced requests it also attaches the spans finished so far as a
// response header just before the headers flush, so an upstream router
// can merge replica-side timing into its own trace.
type statusRecorder struct {
	http.ResponseWriter
	status int
	span   *trace.Span
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.wrote = true
		if enc := r.span.EncodeFinished(); enc != "" {
			r.Header().Set(trace.SpansHeader, enc)
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

// instrument applies, per request: inflight accounting, the concurrency
// cap (shed with 429 + Retry-After), per-endpoint deadlines, chat
// body-size and rate guards, latency histograms, and the slow-query log.
func (e *Engine) instrument(next http.Handler) http.Handler {
	inflight := e.reg.Gauge("medrelax_http_inflight", "requests currently being served", e.labels(""))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := r.URL.Path
		if !tracked(endpoint) {
			endpoint = "other"
		}
		epLabel := e.labels(metrics.Label("endpoint", endpoint))
		inflight.Inc()
		defer inflight.Dec()

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		tctx, root := e.opts.Tracer.StartRequest(r.Context(), r.Header, "server "+endpoint)
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
				e.shed(rec, endpoint, "over concurrency limit")
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
			// A client sending `Cache-Control: no-store` opts out of the
			// result cache for this request — no read, no write. Benchmark
			// harnesses use it to measure the uncached path on a warm
			// server without evicting real entries.
			if cc := r.Header.Get("Cache-Control"); cc != "" && strings.Contains(strings.ToLower(cc), "no-store") {
				r = r.WithContext(withCacheBypass(r.Context()))
			}
		case "/chat":
			timeout = e.opts.ChatTimeout
			if !e.chatRate.allow() {
				e.shed(rec, endpoint, "over rate limit")
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

		e.reg.Histogram("medrelax_http_request_seconds", httpLatencyHelp, epLabel).Observe(dur.Seconds())
		e.reg.Counter("medrelax_http_requests_total", "HTTP requests by endpoint and status code",
			epLabel+",code=\""+strconv.Itoa(rec.status)+"\"").Inc()
		if e.opts.SlowQuery > 0 && dur >= e.opts.SlowQuery {
			e.logSlow(r, endpoint, rec.status, dur)
		}
	})
}

func tracked(path string) bool {
	for _, ep := range trackedEndpoints {
		if path == ep {
			return true
		}
	}
	return false
}

// shed rejects with 429 + Retry-After: the one response shape that tells
// a well-behaved client exactly what to do, at near-zero server cost.
func (e *Engine) shed(w http.ResponseWriter, endpoint, reason string) {
	retry := e.opts.RetryAfter
	if retry <= 0 {
		retry = time.Second
	}
	w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "server overloaded: " + reason})
	e.reg.Counter("medrelax_http_shed_total", "requests shed by admission control",
		e.labels(metrics.Label("endpoint", endpoint))).Inc()
}

// logSlow emits one structured line per slow request so tail-latency
// offenders can be grepped out of production logs.
func (e *Engine) logSlow(r *http.Request, endpoint string, status int, dur time.Duration) {
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
	e.reg.Counter("medrelax_http_slow_total", "requests over the slow-query threshold",
		e.labels(metrics.Label("endpoint", endpoint))).Inc()
	if logger := e.opts.SlowLog; logger != nil {
		logger.Print(string(line))
	} else {
		log.Print(string(line))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serving: encoding response: %v", err)
	}
}
