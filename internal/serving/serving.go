// Package serving wraps a server.Backend with production semantics: a
// sharded LRU result cache with singleflight collapse, admission control
// (per-request deadlines, a concurrency cap that sheds instead of queues,
// chat size/rate guards), hot bundle reload behind an atomic pointer swap,
// and a hand-rolled Prometheus-format metrics layer. The paper's system
// ran as a cloud service behind a conversational frontend; this package is
// the part of that deployment the algorithm papers leave out.
package serving

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/dialog"
	"medrelax/internal/fault"
	"medrelax/internal/persist"
	"medrelax/internal/server"
	"medrelax/internal/serving/metrics"
	"medrelax/internal/stringutil"
	"medrelax/internal/trace"
	"runtime/pprof"
)

// Options tunes the serving layer. The zero value disables the cache and
// every guard; DefaultOptions returns production defaults.
type Options struct {
	// CacheCapacity bounds the result cache in entries (0 disables it).
	CacheCapacity int
	// CacheTTL expires entries; 0 means LRU/purge only.
	CacheTTL time.Duration
	// CacheStaleWindow bounds stale-on-error serving: when the backend
	// fails a recomputation, a cache entry that expired less than this
	// long ago is served instead of the error (0 disables degraded mode).
	CacheStaleWindow time.Duration

	// MaxConcurrent caps simultaneously admitted /relax + /chat requests;
	// excess load is shed with 429 and a Retry-After of one second. 0 means
	// unlimited.
	MaxConcurrent int

	// RelaxTimeout bounds one relaxation computation (and a caller's wait
	// on a collapsed flight). 0 means no deadline.
	RelaxTimeout time.Duration
	// ChatTimeout bounds one conversation turn. 0 means no deadline.
	ChatTimeout time.Duration

	// MaxChatBody caps the /chat request body in bytes (0: 1 MiB).
	MaxChatBody int64
	// ChatRPS rate-limits /chat requests per second (0: unlimited).
	ChatRPS float64
	// ChatBurst is the token-bucket burst for ChatRPS.
	ChatBurst int

	// SlowQuery logs requests slower than this threshold through the
	// standard logger (0 disables).
	SlowQuery time.Duration

	// Loader builds a fresh backend for POST /admin/reload and SIGHUP;
	// reload is disabled when nil.
	Loader func() (server.Backend, error)

	// Metrics is the registry series are written to. nil builds a private
	// one; multi-tenant deployments pass one shared registry so a single
	// /metrics scrape covers every tenant.
	Metrics *metrics.Registry

	// Tracer samples and records distributed traces; nil disables tracing.
	// Multi-tenant deployments share one tracer (the ring buffer is
	// per-process), with Tenant distinguishing the traces.
	Tracer *trace.Tracer
	// Tenant names this engine's partition: a tenant="…" label first on
	// every series it emits, a tag on its trace spans, a pprof label. Empty
	// for single-tenant deployments, whose series names carry no label.
	Tenant string
}

// DefaultOptions are sane production defaults for a medium instance.
func DefaultOptions() Options {
	return Options{
		CacheCapacity:    16384,
		CacheTTL:         5 * time.Minute,
		CacheStaleWindow: time.Minute,
		MaxConcurrent:    256,
		RelaxTimeout:     2 * time.Second,
		ChatTimeout:      5 * time.Second,
		MaxChatBody:      1 << 20,
		ChatRPS:          200,
		ChatBurst:        400,
		SlowQuery:        500 * time.Millisecond,
	}
}

// holder pairs a backend with its inflight refcount so a swapped-out
// bundle can be drained: the pointer swap is atomic, and the old holder is
// observed until its last admitted request finishes.
type holder struct {
	b        server.Backend
	gen      uint64
	inflight atomic.Int64
}

// Engine implements server.Backend over a swappable inner backend, adding
// the cache, admission bookkeeping, and metrics. Wire it as the backend of
// a server.Server, then wrap the server's handler with Engine.Handler.
type Engine struct {
	opts  Options
	base  string // the tenant label every series starts with; "" untenanted
	cur   atomic.Pointer[holder]
	cache *Cache

	limiter  *Limiter
	chatRate *tokenBucket

	reg *metrics.Registry

	reloadMu sync.Mutex
	gen      atomic.Uint64

	// metric handles on the hot path, resolved once. mCache counts relax
	// requests by how the cache answered them, one series per CacheStatus.
	mCache        [len(cacheStatusNames)]*metrics.Counter
	mBackendRelax *metrics.Histogram
	mPathLive     *metrics.Counter
	mPathMat      *metrics.Counter
	mPathIdx      *metrics.Counter
	mMatTruncated *metrics.Counter

	geometry geometrySeries
}

// geometryCounters are the keys of a backend's "relaxGeometry" stats that
// become medrelax_relax_geometry_<key>_total series.
var geometryCounters = [...]string{"hits", "fills", "refills", "mapped", "evictions"}

// geometrySeries mirrors the backend's geometry-memo counts (the
// "relaxGeometry" map of its Stats) into the registry when it is scraped. The
// memo belongs to a snapshot and its counts restart with every generation, so
// the series add each generation's growth and never step back.
type geometrySeries struct {
	mu       sync.Mutex
	gen      uint64
	seen     [len(geometryCounters)]uint64
	counters [len(geometryCounters)]*metrics.Counter
	// bytes, planes and planeBytes are what the snapshot holds now: the memo's
	// bytes, and the per-context IC planes with theirs.
	bytes, planes, planeBytes *metrics.Gauge
}

// syncGeometry brings the geometry series up to the current backend's counts.
func (e *Engine) syncGeometry() {
	h := e.acquire()
	defer h.release()
	counts, ok := h.b.Stats()["relaxGeometry"].(map[string]uint64)
	if !ok {
		return
	}
	g := &e.geometry
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gen != h.gen {
		g.gen, g.seen = h.gen, [len(geometryCounters)]uint64{}
	}
	for i, key := range geometryCounters {
		if v := counts[key]; v > g.seen[i] {
			g.counters[i].Add(v - g.seen[i])
			g.seen[i] = v
		}
	}
	g.bytes.Set(int64(counts["bytes"]))
	g.planes.Set(int64(counts["planes"]))
	g.planeBytes.Set(int64(counts["planeBytes"]))
}

// NewEngine wraps backend with the serving layer.
func NewEngine(backend server.Backend, opts Options) *Engine {
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	opts.Tracer.BindMetrics(reg, "medrelax")
	e := &Engine{
		opts:     opts,
		cache:    NewCache(opts.CacheCapacity, opts.CacheTTL, opts.CacheStaleWindow),
		limiter:  NewLimiter(opts.MaxConcurrent),
		chatRate: newTokenBucket(opts.ChatRPS, opts.ChatBurst),
		reg:      reg,
	}
	if opts.Tenant != "" {
		e.base = metrics.Label("tenant", opts.Tenant)
	}
	e.cur.Store(&holder{b: backend, gen: e.gen.Add(1)})
	e.mCache[CacheHit] = e.reg.Counter("medrelax_relax_cache_hits_total", "relax results served from cache", e.labels(""))
	e.mCache[CacheMiss] = e.reg.Counter("medrelax_relax_cache_misses_total", "relax results computed by the backend", e.labels(""))
	e.mCache[CacheCollapsed] = e.reg.Counter("medrelax_relax_cache_collapsed_total", "concurrent identical misses collapsed onto one computation", e.labels(""))
	e.mCache[CacheStale] = e.reg.Counter("medrelax_relax_cache_stale_total", "expired entries served because recomputation failed (degraded mode)", e.labels(""))
	e.mCache[CacheBypass] = e.reg.Counter("medrelax_relax_cache_bypass_total", "relax requests (GETs and batch items) that skipped the result cache (Cache-Control: no-store)", e.labels(""))
	e.mBackendRelax = e.reg.Histogram("medrelax_backend_relax_seconds", "uncached relaxation compute latency", e.labels(""))
	e.mPathLive = e.reg.Counter("medrelax_relax_live_path_total", "uncached relaxations answered by live graph traversal", e.labels(""))
	e.mPathMat = e.reg.Counter("medrelax_relax_materialized_hit_total", "uncached relaxations answered from the materialized top-k store", e.labels(""))
	e.mPathIdx = e.reg.Counter("medrelax_relax_index_path_total", "uncached relaxations answered from a geometry the candidate index stores", e.labels(""))
	e.mMatTruncated = e.reg.Counter("medrelax_relax_materialized_truncated_total", "uncached relaxations the materialized store held an entry for and declined, the entry cut too shallow (MaxPerQuery) to prove their k", e.labels(""))
	for i, key := range geometryCounters {
		e.geometry.counters[i] = e.reg.Counter("medrelax_relax_geometry_"+key+"_total", "kernel geometry source: "+key+" (a hit scored a memoised walk; a fill or refill walked the graph; mapped scored a view of the candidate index)", e.labels(""))
	}
	e.geometry.bytes = e.reg.Gauge("medrelax_relax_geometry_bytes", "bytes the live-path geometry memo holds", e.labels(""))
	e.geometry.planes = e.reg.Gauge("medrelax_relax_ic_planes", "query contexts whose IC plane the relaxer holds", e.labels(""))
	e.geometry.planeBytes = e.reg.Gauge("medrelax_relax_ic_plane_bytes", "bytes the IC planes hold", e.labels(""))
	e.reg.Gauge("medrelax_bundle_generation", "monotonic bundle generation, bumped per reload", e.labels("")).Set(1)
	// Register the failure counter up front so a scrape before the first
	// failed reload still shows the series at 0.
	e.reg.Counter("medrelax_reload_failures_total", "bundle reloads rejected (old generation kept serving)", e.labels(""))
	return e
}

// joinLabels composes two rendered label lists; either may be empty.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// labels prepends the engine's tenant label to a series' own labels. With no
// tenant the single-tenant series names come out unchanged.
func (e *Engine) labels(extra string) string { return joinLabels(e.base, extra) }

// CacheStats returns how many relax requests — GETs and batch items alike —
// the cache served from an entry, computed, and collapsed onto another's
// flight, and how many entries it holds; zeros when the cache is disabled. A
// request answered stale, or that bypassed the cache, counts in none of them.
func (e *Engine) CacheStats() (hits, misses, collapsed uint64, entries int) {
	if e.cache == nil {
		return 0, 0, 0, 0
	}
	return e.mCache[CacheHit].Value(), e.mCache[CacheMiss].Value(), e.mCache[CacheCollapsed].Value(), e.cache.Len()
}

// acquire pins the current holder for the duration of one request.
func (e *Engine) acquire() *holder {
	h := e.cur.Load()
	h.inflight.Add(1)
	return h
}

func (h *holder) release() { h.inflight.Add(-1) }

// cacheKey normalizes the request so trivially different spellings of the
// same query share an entry. K participates because it changes the
// consumed candidate list, not just its length. Explain participates
// because explained results carry extra fields: caching them under the
// plain key would leak explain payloads into explain=false responses (and
// vice versa, strip them from explain=true ones).
func cacheKey(req server.Request) string {
	key := stringutil.Normalize(req.Term) + "\x1f" + req.Context + "\x1f" + strconv.Itoa(req.K)
	if req.Explain {
		key += "\x1fx"
	}
	return key
}

// countPath attributes one uncached relaxation to the serving path that
// answered it, and to the truncated entry that declined it first if one did.
func (e *Engine) countPath(resp *server.Response) {
	if resp.Decline == core.DeclineTruncated {
		e.mMatTruncated.Inc()
	}
	switch resp.Path {
	case core.PathMaterialized:
		e.mPathMat.Inc()
	case core.PathIndexed:
		e.mPathIdx.Inc()
	default:
		e.mPathLive.Inc()
	}
}

// compute is the one place requests leave for the backend, single or batched.
// The "backend.relax" fault site injects latency or errors here — after
// admission, before the backend — so chaos runs exercise the degradation
// paths (503 mapping, stale-on-error) without a special backend. Each answer
// is attributed to the serve path that supplied it.
func (e *Engine) compute(ctx context.Context, h *holder, endpoint string, reqs []server.Request) []server.Response {
	if err := fault.At("backend.relax").Inject(); err != nil {
		return failAll(len(reqs), err)
	}
	start := time.Now()
	var out []server.Response
	if trace.FromContext(ctx) != nil {
		// Traced requests run under pprof labels so a CPU profile attributes
		// relax samples to tenant+endpoint; the untraced path skips the label
		// machinery (and its allocations) entirely.
		pprof.Do(ctx, pprof.Labels("tenant", e.pprofTenant(), "endpoint", endpoint), func(ctx context.Context) {
			out = h.b.RelaxBatch(ctx, reqs)
		})
	} else {
		out = h.b.RelaxBatch(ctx, reqs)
	}
	answered := false
	for i := range out {
		if out[i].Err == nil {
			e.countPath(&out[i])
			answered = true
		}
	}
	if answered {
		e.mBackendRelax.Observe(time.Since(start).Seconds())
	}
	return out
}

// failAll answers n requests with the one error that stopped them all.
func failAll(n int, err error) []server.Response {
	out := make([]server.Response, n)
	for i := range out {
		out[i].Err = err
	}
	return out
}

// pprofTenant names this engine on profile labels; single-tenant
// deployments show up as "default".
func (e *Engine) pprofTenant() string {
	if e.opts.Tenant != "" {
		return e.opts.Tenant
	}
	return "default"
}

// RelaxBatch implements server.Backend, and is the serving layer's one relax
// body: a GET is a batch of one. Each item probes the result cache: a live
// entry is a hit; a key already in flight — opened by a GET, by another batch
// or by an earlier item of this one — is joined; any other key opens a
// flight. The flights this call opened and the items that skip the cache
// (Request.NoStore) go to the backend in one call. Each opened flight then
// completes — stored unless a reload purged the cache meanwhile, falling back
// to its stale entry on error — and only then does this call wait, under its
// own ctx, on the flights it joined: completing every flight it owns before
// waiting on any other is what keeps two overlapping batches from
// deadlocking. Each item counts once, in the series of its CacheStatus, and
// a sampled call's serving.cache span covers the probe and tags its outcome.
//
// An answer that went through the cache is the slice the backend returned, so
// its encoding is byte-identical to the uncached one, but it reports no Path:
// the cache holds results, not where they came from.
func (e *Engine) RelaxBatch(ctx context.Context, reqs []server.Request) []server.Response {
	if err := ctx.Err(); err != nil {
		return failAll(len(reqs), err)
	}
	h := e.acquire()
	defer h.release()
	endpoint := "relax" // the pprof label: one item is what a GET asks
	if len(reqs) > 1 {
		endpoint = "relax_batch"
	}
	sp := trace.FromContext(ctx)
	if e.cache == nil {
		sp.SetTag("cache", "disabled")
		return e.compute(ctx, h, endpoint, reqs)
	}
	out := make([]server.Response, len(reqs))
	// probes holds the items the cache did not answer, in order; batch is what
	// this call computes: the flights it opened and the items that bypass.
	var (
		probes []probe
		batch  []server.Request
		counts [len(cacheStatusNames)]int
		opened bool
	)
	cspan := sp.StartChild("serving.cache")
	for i, req := range reqs {
		p := probe{i: i, status: CacheBypass}
		if !req.NoStore {
			var results []server.RelaxResult
			results, p.fl, p.status = e.cache.open(cacheKey(req))
			out[i].Results = results // a hit's; nil otherwise
		}
		counts[p.status]++
		if p.status == CacheHit {
			continue
		}
		probes = append(probes, p)
		if p.status != CacheCollapsed {
			batch = append(batch, req)
			opened = opened || p.status == CacheMiss
		}
	}
	if cspan != nil {
		outcome := "mixed"
		for s, n := range counts {
			if n == len(reqs) {
				outcome = cacheStatusNames[s]
			}
		}
		cspan.SetTag("outcome", outcome)
		cspan.SetTag("hits", strconv.Itoa(counts[CacheHit]))
		cspan.SetTag("misses", strconv.Itoa(counts[CacheMiss]))
		cspan.End()
	}
	if len(batch) > 0 {
		cctx := ctx
		if opened && e.opts.RelaxTimeout > 0 {
			// A flight owns its deadline: a joiner's short deadline bounds
			// only its wait, never the computation every joiner receives.
			// Detaching sheds the caller's cancellation, not its trace: the
			// opening request's trace keeps the kernel spans.
			var cancel context.CancelFunc
			cctx, cancel = context.WithTimeout(trace.ContextWithSpan(context.Background(), sp), e.opts.RelaxTimeout)
			defer cancel()
		}
		computed := e.compute(cctx, h, endpoint, batch)
		j := 0
		for _, p := range probes {
			switch p.status {
			case CacheMiss:
				out[p.i] = e.cache.complete(p.fl, computed[j])
			case CacheBypass:
				out[p.i] = computed[j]
			default:
				continue
			}
			j++
		}
	}
	for _, p := range probes {
		switch p.status {
		case CacheBypass:
			continue
		case CacheCollapsed:
			if err := p.fl.wait(ctx); err != nil {
				out[p.i].Err = err
				continue
			}
			out[p.i] = p.fl.resp
		}
		if p.fl.stale {
			counts[p.status]--
			counts[CacheStale]++
		}
	}
	for s, n := range counts {
		if n > 0 {
			e.mCache[s].Add(uint64(n))
		}
	}
	return out
}

// probe is one RelaxBatch item the cache did not answer: its index, the
// flight it opened or joined (nil when it bypasses the cache), and how it
// stands.
type probe struct {
	i      int
	fl     *flight
	status CacheStatus
}

// Relax spells RelaxBatch the way bench/ calls it.
func (e *Engine) Relax(ctx context.Context, term, qctx string, k int) ([]server.RelaxResult, error) { // bench contract
	resp := e.RelaxBatch(ctx, []server.Request{{Term: term, Context: qctx, K: k}})[0]
	return resp.Results, resp.Err
}

// NewConversation implements server.Backend.
func (e *Engine) NewConversation() (*dialog.Conversation, error) {
	h := e.acquire()
	defer h.release()
	return h.b.NewConversation()
}

// Terms implements server.Backend.
func (e *Engine) Terms(n int) []string {
	h := e.acquire()
	defer h.release()
	return h.b.Terms(n)
}

// Stats implements server.Backend: the inner stats plus a "serving"
// section with cache and admission state and per-endpoint tail latencies.
func (e *Engine) Stats() map[string]any {
	h := e.acquire()
	defer h.release()
	stats := h.b.Stats()
	hits, misses, collapsed, entries := e.CacheStats()
	serving := map[string]any{
		"bundleGeneration": h.gen,
		"cacheEntries":     entries,
		"cacheHits":        hits,
		"cacheMisses":      misses,
		"cacheCollapsed":   collapsed,
		"inflightLimited":  e.limiter.InUse(),
		"reloadFailures":   e.ReloadFailures(),
		"cacheBypassed":    e.mCache[CacheBypass].Value(),
		"servePaths": map[string]uint64{
			"live":         e.mPathLive.Value(),
			"materialized": e.mPathMat.Value(),
			"indexed":      e.mPathIdx.Value(),
			// Also under the path that answered.
			"materializedTruncated": e.mMatTruncated.Value(),
		},
	}
	if e.cache != nil {
		serving["cacheStaleServed"] = e.mCache[CacheStale].Value()
	}
	for _, ep := range trackedEndpoints {
		hist := e.reg.Histogram("medrelax_http_request_seconds", httpLatencyHelp, e.labels(metrics.Label("endpoint", ep)))
		if hist.Count() == 0 {
			continue
		}
		serving[ep] = map[string]any{
			"requests": hist.Count(),
			"p50ms":    hist.Quantile(0.50) * 1000,
			"p95ms":    hist.Quantile(0.95) * 1000,
			"p99ms":    hist.Quantile(0.99) * 1000,
		}
	}
	stats["serving"] = serving
	return stats
}

// Swap atomically replaces the backend, purges the cache, and drains the
// old holder in the background. In-flight requests finish against
// whichever backend they started on — every response is coherently old or
// coherently new, never mixed.
func (e *Engine) Swap(b server.Backend) {
	gen := e.gen.Add(1)
	old := e.cur.Swap(&holder{b: b, gen: gen})
	if e.cache != nil {
		e.cache.Purge()
	}
	e.reg.Gauge("medrelax_bundle_generation", "monotonic bundle generation, bumped per reload", e.labels("")).Set(int64(gen))
	go func() {
		for old.inflight.Load() > 0 {
			time.Sleep(5 * time.Millisecond)
		}
		log.Printf("serving: bundle generation %d drained, generation %d live", old.gen, gen)
	}()
}

// Reload builds a fresh backend via Options.Loader and swaps it in. Safe
// for concurrent callers (reloads serialize); the request path never
// blocks on a reload.
//
// A failed reload is the degraded-mode contract in one sentence: the old
// generation keeps serving, untouched — the swap happens only after the
// loader fully validated the new bundle. Failures increment
// medrelax_reload_failures_total plus a reason-labelled
// medrelax_reloads_total series ("corrupt" for a bundle that exists but
// fails its checksums or validation, "missing" for a vanished file,
// "error" otherwise), so a bad push is visible on the dashboard while
// traffic sees no change.
func (e *Engine) Reload() error {
	if e.opts.Loader == nil {
		return fmt.Errorf("serving: no reload loader configured")
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	start := time.Now()
	b, err := e.opts.Loader()
	if err != nil {
		e.reg.Counter("medrelax_reload_failures_total", "bundle reloads rejected (old generation kept serving)", e.labels("")).Inc()
		e.reg.Counter("medrelax_reloads_total", "bundle reloads by result", e.labels(metrics.Label("result", reloadFailureReason(err)))).Inc()
		return fmt.Errorf("serving: reload: %w", err)
	}
	e.Swap(b)
	e.reg.Counter("medrelax_reloads_total", "bundle reloads by result", e.labels(metrics.Label("result", "ok"))).Inc()
	log.Printf("serving: reload complete in %s", time.Since(start).Round(time.Millisecond))
	return nil
}

// ReloadFailures reports how many reloads were rejected since start.
func (e *Engine) ReloadFailures() uint64 {
	return e.reg.Counter("medrelax_reload_failures_total", "bundle reloads rejected (old generation kept serving)", e.labels("")).Value()
}

// reloadFailureReason buckets a loader error for the reloads_total label:
// a corrupt bundle (checksum, truncation, structural damage) is the
// operationally interesting case and gets its own series, as does a
// missing file.
func reloadFailureReason(err error) string {
	switch {
	case errors.Is(err, persist.ErrCorruptBundle):
		return "corrupt"
	case errors.Is(err, fs.ErrNotExist):
		return "missing"
	default:
		return "error"
	}
}
