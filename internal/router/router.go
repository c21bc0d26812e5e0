package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"medrelax/internal/retry"
	"medrelax/internal/server"
	"medrelax/internal/serving"
	"medrelax/internal/serving/metrics"
	"medrelax/internal/stringutil"
	"medrelax/internal/trace"
)

// Options configures a Router.
type Options struct {
	// Replicas are the kbserver backends as host:port addresses.
	Replicas []string
	// VNodes is the virtual nodes per replica on the placement ring
	// (<= 0 uses DefaultVNodes).
	VNodes int
	// ProbeInterval is the active health probe period; <= 0 disables
	// active probing (passive failure marking still applies).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each health probe.
	ProbeTimeout time.Duration
	// FailAfter is the consecutive failures before a replica is marked
	// down (default 3).
	FailAfter int
	// MaxConcurrent caps concurrently proxied requests; beyond it the
	// router sheds with 429 before touching a replica. <= 0 is unlimited.
	MaxConcurrent int
	// RetryAfter is the hint attached to shed responses (default 1s).
	RetryAfter time.Duration
	// Retry is the backoff policy for replica failures — the retry.Policy
	// shape every client of the server uses, honouring Retry-After, applied
	// router→replica.
	Retry retry.Policy
	// ShardTimeout bounds each scatter-gather shard request (default 5s).
	ShardTimeout time.Duration
	// Client is the HTTP client for replica traffic (default: pooled
	// transport with generous idle connections per replica).
	Client *http.Client
	// Tracer samples and records distributed traces; nil disables
	// tracing entirely (the untraced path costs nothing either way).
	Tracer *trace.Tracer
}

// DefaultOptions are production-shaped defaults for everything but the
// replica list.
func DefaultOptions() Options {
	return Options{
		VNodes:        DefaultVNodes,
		ProbeInterval: 500 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		FailAfter:     3,
		MaxConcurrent: 256,
		RetryAfter:    time.Second,
		Retry:         retry.Policy{MaxRetries: 2, Base: 25 * time.Millisecond, Cap: 500 * time.Millisecond},
		ShardTimeout:  5 * time.Second,
	}
}

// Router fronts a set of kbserver replicas: consistent-hash placement,
// health-aware failover, scatter-gather batching, and its own admission
// control so overload sheds at the edge instead of burning replica slots.
type Router struct {
	opts    Options
	ring    *Ring
	health  *health
	client  *http.Client
	limiter *serving.Limiter
	reg     *metrics.Registry
	tracer  *trace.Tracer

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Router over opts.Replicas. Call Start to begin active
// health probing and Stop on shutdown.
func New(opts Options) *Router {
	def := DefaultOptions()
	if opts.FailAfter <= 0 {
		opts.FailAfter = def.FailAfter
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = def.RetryAfter
	}
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = def.ShardTimeout
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = def.ProbeTimeout
	}
	if opts.Retry == (retry.Policy{}) {
		opts.Retry = def.Retry
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	reg := metrics.NewRegistry()
	opts.Tracer.BindMetrics(reg, "kbrouter")
	rt := &Router{
		opts:    opts,
		ring:    NewRing(opts.VNodes, opts.Replicas),
		client:  client,
		limiter: serving.NewLimiter(opts.MaxConcurrent),
		reg:     reg,
		tracer:  opts.Tracer,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	rt.health = newHealth(rt.ring.Replicas(), opts.FailAfter, opts.ProbeInterval, opts.ProbeTimeout, client, reg)
	return rt
}

// Start launches the active health prober.
func (rt *Router) Start() { rt.health.Start() }

// Stop shuts down the prober.
func (rt *Router) Stop() { rt.health.Stop() }

// Health reports whether a replica is currently routable.
func (rt *Router) ReplicaHealthy(replica string) bool { return rt.health.Healthy(replica) }

// keySep joins tenant and term into one routing key without colliding
// with either's character set.
const keySep = "\x1f"

// routingKey places a query: tenant plus the term normalized the way the
// replica's result cache keys it, so every spelling that shares a cache entry
// lands on the one replica holding it.
func routingKey(tenant, term string) string {
	return tenant + keySep + stringutil.Normalize(term)
}

// tenantOf extracts the tenant a request addresses: a /t/{name}/ path
// prefix wins, then the X-Medrelax-Tenant header, else "".
func tenantOf(r *http.Request) string {
	if rest, ok := strings.CutPrefix(r.URL.Path, "/t/"); ok {
		if name, _, ok := strings.Cut(rest, "/"); ok {
			return name
		}
	}
	return r.Header.Get(serving.TenantHeader)
}

// apiPath strips a /t/{name} prefix, returning the replica-side endpoint
// used for routing decisions ("/relax", "/relax/batch", ...). The full
// original path is still what gets proxied.
func apiPath(path string) string {
	if rest, ok := strings.CutPrefix(path, "/t/"); ok {
		if _, sub, ok := strings.Cut(rest, "/"); ok {
			return "/" + sub
		}
	}
	return path
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.Handle("GET /debug/traces", rt.tracer.Recorder())
	mux.HandleFunc("POST /admin/reload", rt.handleReloadAll)
	mux.Handle("/", rt.instrument(http.HandlerFunc(rt.route)))
	return mux
}

// route dispatches proxied endpoints by their replica-side path.
func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	switch apiPath(r.URL.Path) {
	case "/relax":
		rt.handleRelax(w, r)
	case "/relax/batch":
		rt.handleBatch(w, r)
	case "/chat":
		rt.handleChat(w, r)
	case "/terms":
		rt.handleTerms(w, r)
	default:
		server.WriteError(w, http.StatusNotFound, "unknown endpoint")
	}
}

// trackedEndpoints bounds the endpoint label cardinality, mirroring the
// serving layer's discipline.
var trackedEndpoints = []string{"/relax", "/relax/batch", "/chat", "/terms"}

// instrument applies router admission and per-endpoint accounting. The
// concurrency cap sheds BEFORE any replica connection is made: an
// overloaded cluster answers cheap 429s at the edge instead of queueing
// on a busy shard.
func (rt *Router) instrument(next http.Handler) http.Handler {
	inflight := rt.reg.Gauge("kbrouter_http_inflight", "requests currently being routed", "")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := apiPath(r.URL.Path)
		if !tracked(endpoint) {
			endpoint = "other"
		}
		epLabel := metrics.Label("endpoint", endpoint)
		inflight.Inc()
		defer inflight.Dec()

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		ctx, root := rt.tracer.StartRequest(r.Context(), r.Header, "router "+endpoint)
		if root != nil {
			if tn := tenantOf(r); tn != "" {
				root.SetTag("tenant", tn)
			}
			r = r.WithContext(ctx)
			defer func() {
				root.SetTag("status", strconv.Itoa(rec.status))
				root.End()
			}()
		}

		if endpoint == "/relax" || endpoint == "/relax/batch" || endpoint == "/chat" {
			adm := root.StartChild("router.admission")
			if !rt.limiter.TryAcquire() {
				adm.SetTag("outcome", "shed")
				adm.End()
				rt.shed(rec, endpoint)
				return
			}
			adm.SetTag("outcome", "admitted")
			adm.End()
			defer rt.limiter.Release()
		}

		start := time.Now()
		next.ServeHTTP(rec, r)
		rt.reg.Histogram("kbrouter_http_request_seconds", "router request latency by endpoint", epLabel).
			Observe(time.Since(start).Seconds())
		rt.reg.Counter("kbrouter_http_requests_total", "router requests by endpoint and status code",
			epLabel+",code=\""+strconv.Itoa(rec.status)+"\"").Inc()
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

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// shed rejects with 429 + Retry-After before consuming any replica
// capacity — the same contract the serving layer's admission uses, so one
// client backoff policy covers both tiers.
func (rt *Router) shed(w http.ResponseWriter, endpoint string) {
	w.Header().Set("Retry-After", strconv.Itoa(int((rt.opts.RetryAfter+time.Second-1)/time.Second)))
	server.WriteError(w, http.StatusTooManyRequests, "server overloaded: over concurrency limit")
	rt.reg.Counter("kbrouter_http_shed_total", "requests shed by router admission control",
		metrics.Label("endpoint", endpoint)).Inc()
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy, total := rt.health.HealthyCount()
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, status, map[string]any{
		"status":          map[bool]string{true: "ok", false: "degraded"}[healthy > 0],
		"replicasHealthy": healthy,
		"replicasTotal":   total,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := rt.reg.WritePrometheus(w); err != nil {
		log.Printf("router: writing metrics: %v", err)
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	replicas := rt.ring.Replicas()
	states := make(map[string]bool, len(replicas))
	for _, rep := range replicas {
		states[rep] = rt.health.Healthy(rep)
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"role":     "router",
		"replicas": states,
		"vnodes":   rt.opts.VNodes,
	})
}

// handleReloadAll fans POST /admin/reload to every replica so a bundle
// swap hits the whole cluster in one call.
func (rt *Router) handleReloadAll(w http.ResponseWriter, r *http.Request) {
	replicas := rt.ring.Replicas()
	results := make(map[string]string, len(replicas))
	var mu sync.Mutex
	var wg sync.WaitGroup
	failures := 0
	for _, rep := range replicas {
		wg.Add(1)
		go func(rep string) {
			defer wg.Done()
			status, _, _, err := rt.send(r.Context(), rep, http.MethodPost, "/admin/reload", nil, nil)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				results[rep] = "unreachable: " + err.Error()
				failures++
			case status != http.StatusOK:
				results[rep] = "status " + strconv.Itoa(status)
				failures++
			default:
				results[rep] = "reloaded"
			}
		}(rep)
	}
	wg.Wait()
	status := http.StatusOK
	if failures > 0 {
		status = http.StatusBadGateway
	}
	server.WriteJSON(w, status, map[string]any{"replicas": results})
}

// handleRelax proxies GET /relax to the replica owning tenant+term,
// failing over around unhealthy replicas with the shared backoff policy.
// The owning replica's response is copied verbatim — status, content
// type, and body bytes — so routing is invisible to the byte-identity
// contract.
func (rt *Router) handleRelax(w http.ResponseWriter, r *http.Request) {
	term := r.URL.Query().Get("term")
	if term == "" {
		// The router needs the term to place the request; answer exactly as
		// the replica would without spending a hop.
		server.WriteError(w, http.StatusBadRequest, "missing term parameter")
		return
	}
	key := routingKey(tenantOf(r), term)
	status, header, body, err := rt.forward(r, key)
	if err != nil {
		writeUnavailable(w, err)
		return
	}
	copyResponse(w, status, header, body)
}

// handleChat pins a conversation to one replica by hashing its session id
// — dialogue state lives server-side, so affinity is correctness, not
// just cache friendliness.
func (rt *Router) handleChat(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	var probe struct {
		Session string `json:"session"`
	}
	// A malformed body still forwards: the replica owns the error shape.
	_ = json.Unmarshal(body, &probe)
	r.Body = io.NopCloser(bytes.NewReader(body))
	key := tenantOf(r) + keySep + "chat" + keySep + probe.Session
	status, header, respBody, err := rt.forward(r, key)
	if err != nil {
		writeUnavailable(w, err)
		return
	}
	copyResponse(w, status, header, respBody)
}

// handleTerms proxies to any healthy replica: every replica holds the full
// bundle, so term enumeration is placement-free.
func (rt *Router) handleTerms(w http.ResponseWriter, r *http.Request) {
	status, header, body, err := rt.forward(r, "terms")
	if err != nil {
		writeUnavailable(w, err)
		return
	}
	copyResponse(w, status, header, body)
}

// candidates returns the replica try-order for key: healthy owners in ring
// order first, then unhealthy ones as a last resort — a fully-down
// cluster still gets attempted rather than synthesizing failure.
func (rt *Router) candidates(key string) []string {
	owners := rt.ring.Owners(key, len(rt.ring.replicas))
	healthy := make([]string, 0, len(owners))
	down := make([]string, 0, len(owners))
	for _, rep := range owners {
		if rt.health.Healthy(rep) {
			healthy = append(healthy, rep)
		} else {
			down = append(down, rep)
		}
	}
	return append(healthy, down...)
}

// forward proxies one request to the replica owning key, buffering the
// body so retries can replay it.
func (rt *Router) forward(r *http.Request, key string) (int, http.Header, []byte, error) {
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			return 0, nil, nil, err
		}
	}
	return rt.forwardReq(r.Context(), r.Method, r.URL.RequestURI(), r.Header, body, key)
}

// forwardReq sends one request to the replica owning key, retrying on
// transport failure and shed/transient statuses per the backoff policy.
// Transport errors advance to the next candidate immediately (and count
// against the failing replica's health); 429/503 wait out the backoff
// first, honoring Retry-After. Whatever response ends the loop is
// returned verbatim.
func (rt *Router) forwardReq(ctx context.Context, method, uri string, header http.Header, body []byte, key string) (int, http.Header, []byte, error) {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		return 0, nil, nil, errNoReplicas
	}
	pol := rt.opts.Retry
	parent := trace.FromContext(ctx)
	var lastErr error
	for attempt := 0; ; attempt++ {
		rep := cands[attempt%len(cands)]
		// Each try gets its own span so a failover walk shows up as a chain
		// of attempts, each tagged with the replica it hit and how it ended.
		sctx := ctx
		var att *trace.Span
		if parent != nil {
			att = parent.StartChild("router.attempt")
			att.SetTag("replica", rep)
			sctx = trace.ContextWithSpan(ctx, att)
		}
		status, respHeader, respBody, err := rt.send(sctx, rep, method, uri, header, body)
		if err != nil {
			if att != nil {
				att.SetTag("outcome", "transport_error")
				att.End()
			}
			rt.health.ReportFailure(rep)
			rt.reg.Counter("kbrouter_replica_errors_total", "transport-level replica failures",
				metrics.Label("replica", rep)).Inc()
			lastErr = err
			if attempt >= pol.MaxRetries {
				return 0, nil, nil, lastErr
			}
			rt.countRetry(rep)
			if len(cands) == 1 {
				time.Sleep(rt.wait(pol, attempt, 0))
			}
			continue
		}
		rt.health.ReportSuccess(rep)
		// Replica-side spans ride back on the response header; merging them
		// here is what makes one router trace span both processes.
		parent.AdoptEncoded(respHeader.Get(trace.SpansHeader))
		if retry.RetryableStatus(status) && attempt < pol.MaxRetries {
			if att != nil {
				att.SetTag("outcome", "retry_status")
				att.SetTag("status", strconv.Itoa(status))
				att.End()
			}
			rt.countRetry(rep)
			time.Sleep(rt.wait(pol, attempt, retry.After(respHeader)))
			continue
		}
		if att != nil {
			att.SetTag("outcome", "ok")
			att.SetTag("status", strconv.Itoa(status))
			att.End()
		}
		return status, respHeader, respBody, nil
	}
}

func (rt *Router) countRetry(replica string) {
	rt.reg.Counter("kbrouter_replica_retries_total", "proxy retries by replica",
		metrics.Label("replica", replica)).Inc()
}

// wait serializes rng access around the shared policy's jitter draw.
func (rt *Router) wait(pol retry.Policy, attempt int, retryAfter time.Duration) time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return pol.Wait(attempt, retryAfter, rt.rng)
}

// send issues one request to one replica, accounting inflight, and returns
// the full response.
func (rt *Router) send(ctx context.Context, replica, method, pathAndQuery string, header http.Header, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+replica+pathAndQuery, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	copyHeader(req.Header, header)
	// Re-parent the outbound hop under the current attempt span (overrides
	// any client-supplied traceparent copied above).
	trace.Inject(ctx, req.Header)
	inflight := rt.reg.Gauge("kbrouter_replica_inflight", "requests in flight per replica",
		metrics.Label("replica", replica))
	inflight.Inc()
	defer inflight.Dec()
	rt.reg.Counter("kbrouter_replica_requests_total", "requests sent per replica",
		metrics.Label("replica", replica)).Inc()
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// hopByHop are the connection-scoped headers a proxy must not forward.
var hopByHop = map[string]bool{
	"Connection":        true,
	"Keep-Alive":        true,
	"Transfer-Encoding": true,
	"Upgrade":           true,
	"Proxy-Connection":  true,
	"Te":                true,
	"Trailer":           true,
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// copyResponse relays a replica response verbatim: the exact body bytes
// plus the headers that carry contract (content type and retry hints).
func copyResponse(w http.ResponseWriter, status int, header http.Header, body []byte) {
	if ct := header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	server.WriteError(w, http.StatusServiceUnavailable, "no replica available: "+err.Error())
}
