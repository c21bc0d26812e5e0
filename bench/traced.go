package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
	"medrelax/internal/router"
	"medrelax/internal/server"
	"medrelax/internal/serving"
	"medrelax/internal/trace"
)

// The traced run replays the head of a workload's measured stream, single
// goroutine and in-process, once per layer entry point, innermost to
// outermost:
//
//	mapper.Map → Relaxer.RelaxTermContextTraced → Snapshot.RelaxTraced →
//	serving.Engine.Relax → Handler.ServeHTTP → loopback GET → GET via router
//
// Each pass contains the one before it, so a layer's self time is its pass
// minus the next-inner pass. Passes below the cache replay only the
// requests that missed it. Every pass runs on its own freshly loaded
// snapshot and freshly warmed engine, so the hit/miss sequence — and with it
// every count — is the same in all of them. The spans are recorded here,
// around the calls into each layer; spans inside the program are a later
// change.
const (
	layerResolve = iota
	layerKernel
	layerEngine
	layerServing
	layerHandler
	layerHTTP
	layerRouter
	layerCount
)

// layerEntry names the call each pass times; it is the span name.
var layerEntry = [layerCount]string{
	"match.Mapper.Map",
	"core.Relaxer.RelaxTermContextTraced",
	"engine.Snapshot.RelaxTraced",
	"serving.Engine.Relax",
	"server.Handler.ServeHTTP",
	"client.loopback",
	"router.Handler.loopback",
}

// span is one timed call into a layer. Parent is the entry point of the
// next-outer pass, which timed the same request around this call.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start"` // ns since the traced run began
	End      int64  `json:"end"`
	Parent   string `json:"parent,omitempty"`
	Request  int    `json:"request"`
}

// pass is one replay through one entry point.
type pass struct {
	total   time.Duration
	perReq  []time.Duration // indexed by operation; zero when not replayed
	mallocs uint64
	bytes   uint64
	misses  int
}

type tracedRun struct {
	p      *plan
	reqs   []request // the measured requests replayed, one per operation
	began  time.Time
	spans  []span
	passes [layerCount]*pass
	outer  int // outermost layer this workload has
	// probe reads the host before every pass, on the one thread the passes
	// use; the self times are reported on the reference host, like every
	// other time of the benchmark.
	probe *hostProbe

	missed       []bool // per operation: did it miss the result cache
	missErrs     int    // misses the backend answered with an error (not cached)
	entriesDelta int    // cache entries gained over the measured replay
	results      int    // ranked results returned by the engine pass
	respBytes    int
	mismatched   int
	paths        [3]int // operations per core.ServePath
	pathTime     [3]time.Duration
	unknown      int // misses no mapper could resolve
}

// timed runs fn as one span of layer for operation op (ops operations when
// a batch shares the call).
func (t *tracedRun) timed(layer, op, ops int, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	ps := t.passes[layer]
	d := end.Sub(start)
	ps.total += d
	parent := ""
	if layer < t.outer {
		parent = layerEntry[layer+1]
	}
	for i := 0; i < ops; i++ {
		ps.perReq[op+i] = d / time.Duration(ops)
	}
	t.spans = append(t.spans, span{Workload: t.p.wl.name, Name: layerEntry[layer],
		Start: int64(start.Sub(t.began)), End: int64(end.Sub(t.began)), Parent: parent, Request: op})
}

// measure brackets a pass with allocation counters. Single-threaded and
// seeded, the counts repeat within 1 % (a GC cycle can drop pooled scratch).
func (t *tracedRun) measure(layer int, body func()) {
	t.passes[layer] = &pass{perReq: make([]time.Duration, len(t.reqs))}
	t.probe.read()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body()
	runtime.ReadMemStats(&after)
	t.passes[layer].mallocs = after.Mallocs - before.Mallocs
	t.passes[layer].bytes = after.TotalAlloc - before.TotalAlloc
}

// stack is one in-process copy of what a kbserver process assembles at
// default flags: snapshot → serving engine → server handler behind the
// tenant router.
type stack struct {
	snap    *engine.Snapshot
	eng     *serving.Engine
	handler http.Handler
}

func newStack(bundle string) (*stack, error) {
	snap, err := engine.LoadSnapshot(bundle)
	if err != nil {
		return nil, err
	}
	opts := serving.DefaultOptions()
	opts.Tracer = trace.NewTracer("kbserver", 128, trace.NewRecorder(256, 16))
	eng := serving.NewEngine(snap, opts)
	tenants := serving.NewTenantServer()
	tenants.Add("default", eng, server.New(eng).Handler())
	return &stack{snap: snap, eng: eng, handler: tenants.Handler()}, nil
}

func (s *stack) close() { _ = s.snap.Close() } // nothing reads the mapping any more

// groups cuts the replayed requests into the round trips of the workload.
func (t *tracedRun) groups() [][]request {
	size := t.p.wl.batch
	var out [][]request
	for i := 0; i+size <= len(t.reqs); i += size {
		out = append(out, t.reqs[i:i+size])
	}
	return out
}

func batchItems(reqs []request) []server.BatchItem {
	items := make([]server.BatchItem, len(reqs))
	for i, r := range reqs {
		items[i] = server.BatchItem{Term: r.Term, Context: r.Context, K: r.K}
	}
	return items
}

// newRequest builds the HTTP request of one round trip against base ("" for
// a recorder).
func newRequest(base string, reqs []request) (*http.Request, error) {
	if len(reqs) == 1 {
		return http.NewRequest(http.MethodGet, base+reqs[0].path(), nil)
	}
	payload, err := json.Marshal(batchBody{Queries: reqs})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/relax/batch", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// servingPass times serving.Engine.Relax (RelaxBatch for a batch workload)
// and learns which operations missed the cache.
func (t *tracedRun) servingPass() error {
	st, err := newStack(t.p.bundle)
	if err != nil {
		return err
	}
	defer st.close()
	ctx := context.Background()
	for _, r := range t.p.warmup {
		_, _ = st.eng.Relax(ctx, r.Term, r.Context, r.K) // an unknown warm-up term is a legitimate 404
	}
	t.missed = make([]bool, len(t.reqs))
	_, misses0, _, entries0 := st.eng.CacheStats()
	t.measure(layerServing, func() {
		op := 0
		for _, g := range t.groups() {
			_, before, _, _ := st.eng.CacheStats()
			var errs int
			if len(g) == 1 {
				t.timed(layerServing, op, 1, func() {
					if _, err := st.eng.Relax(ctx, g[0].Term, g[0].Context, g[0].K); err != nil {
						errs++
					}
				})
			} else {
				items := batchItems(g)
				t.timed(layerServing, op, len(g), func() {
					for _, o := range st.eng.RelaxBatch(ctx, items) {
						if o.Err != nil {
							errs++
						}
					}
				})
			}
			_, after, _, _ := st.eng.CacheStats()
			if after > before {
				if len(g) > 1 {
					return // which items missed is not observable; zipf warm-up makes this unreachable
				}
				t.missed[op] = true
				t.missErrs += errs
			}
			op += len(g)
		}
	})
	_, misses1, _, entries1 := st.eng.CacheStats()
	t.passes[layerServing].misses = int(misses1 - misses0)
	t.entriesDelta = entries1 - entries0
	if t.p.wl.batch > 1 && misses1 != misses0 {
		return fmt.Errorf("%d batch items missed a cache that warm-up should have filled", misses1-misses0)
	}
	return nil
}

// handlerPass times Handler.ServeHTTP on a recorder — mux, admission,
// instrumentation, engine and JSON encoding — and checks the bodies.
func (t *tracedRun) handlerPass() error {
	st, err := newStack(t.p.bundle)
	if err != nil {
		return err
	}
	defer st.close()
	for _, r := range t.p.warmup {
		req, err := newRequest("", []request{r})
		if err != nil {
			return err
		}
		st.handler.ServeHTTP(httptest.NewRecorder(), req)
	}
	groups := t.groups()
	reqs := make([]*http.Request, len(groups))
	recs := make([]*httptest.ResponseRecorder, len(groups))
	for i, g := range groups {
		if reqs[i], err = newRequest("", g); err != nil {
			return err
		}
		recs[i] = httptest.NewRecorder()
	}
	_, misses0, _, _ := st.eng.CacheStats()
	t.measure(layerHandler, func() {
		op := 0
		for i, g := range groups {
			t.timed(layerHandler, op, len(g), func() { st.handler.ServeHTTP(recs[i], reqs[i]) })
			op += len(g)
		}
	})
	_, misses1, _, _ := st.eng.CacheStats()
	t.passes[layerHandler].misses = int(misses1 - misses0)
	for i, g := range groups {
		t.respBytes += recs[i].Body.Len()
		if len(g) == 1 {
			if ref, ok := t.p.refs[g[0].key()]; ok && (recs[i].Code != ref.status || !bytes.Equal(recs[i].Body.Bytes(), ref.body)) {
				t.mismatched++
			}
		}
	}
	return nil
}

// fetch is one loopback round trip: send, read the whole body.
func fetch(client *http.Client, base string, g []request) error {
	req, err := newRequest(base, g)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// httpPass times a loopback GET against the handler: what net/http and the
// loopback add on both sides. It is the floor under every served latency.
func (t *tracedRun) httpPass() error {
	st, err := newStack(t.p.bundle)
	if err != nil {
		return err
	}
	defer st.close()
	srv := httptest.NewServer(st.handler)
	defer srv.Close()
	return t.loopback(layerHTTP, srv.URL, st)
}

// routerPass puts router.Handler, at kbrouter's default flags, between the
// client and two replica stacks.
func (t *tracedRun) routerPass() error {
	var replicas []string
	var stacks []*stack
	for i := 0; i < 2; i++ {
		st, err := newStack(t.p.bundle)
		if err != nil {
			return err
		}
		defer st.close()
		srv := httptest.NewServer(st.handler)
		defer srv.Close()
		stacks = append(stacks, st)
		replicas = append(replicas, strings.TrimPrefix(srv.URL, "http://"))
	}
	opts := router.DefaultOptions()
	opts.Replicas = replicas
	opts.Tracer = trace.NewTracer("kbrouter", 128, trace.NewRecorder(256, 16))
	rt := router.New(opts)
	rt.Start()
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	return t.loopback(layerRouter, front.URL, stacks...)
}

// loopback warms and replays over HTTP against base, and records how many
// measured operations missed the caches of the stacks behind it.
func (t *tracedRun) loopback(layer int, base string, stacks ...*stack) error {
	client := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	for _, r := range t.p.warmup {
		if err := fetch(client, base, []request{r}); err != nil {
			return err
		}
	}
	missesNow := func() int {
		var sum uint64
		for _, st := range stacks {
			_, m, _, _ := st.eng.CacheStats()
			sum += m
		}
		return int(sum)
	}
	before := missesNow()
	var failed error
	t.measure(layer, func() {
		op := 0
		for _, g := range t.groups() {
			t.timed(layer, op, len(g), func() {
				if err := fetch(client, base, g); err != nil && failed == nil {
					failed = err
				}
			})
			op += len(g)
		}
	})
	t.passes[layer].misses = missesNow() - before
	return failed
}

// replayMisses is one pass below the cache, on a snapshot of its own: the
// operations that missed, one timed call each.
func (t *tracedRun) replayMisses(layer int, prepare func(*engine.Snapshot) func(op int, r request)) error {
	snap, err := engine.LoadSnapshot(t.p.bundle)
	if err != nil {
		return err
	}
	defer snap.Close()
	call := prepare(snap)
	t.measure(layer, func() {
		for op, r := range t.reqs {
			if t.missed[op] {
				t.timed(layer, op, 1, func() { call(op, r) })
			}
		}
	})
	return nil
}

// innerPasses replay, below the cache, the operations that missed it.
func (t *tracedRun) innerPasses() error {
	ctx := context.Background()
	err := t.replayMisses(layerEngine, func(snap *engine.Snapshot) func(int, request) {
		return func(_ int, r request) {
			if results, _, err := snap.RelaxTraced(ctx, r.Term, r.Context, r.K); err == nil {
				t.results += len(results)
			}
		}
	})
	if err != nil {
		return err
	}

	contexts := make([]*ontology.Context, len(t.reqs))
	for op, r := range t.reqs {
		if t.missed[op] && r.Context != "" {
			c, err := ontology.ParseContext(r.Context)
			if err != nil {
				return err
			}
			contexts[op] = &c
		}
	}
	servedBy := make([]core.ServePath, len(t.reqs))
	answered := make([]bool, len(t.reqs))
	err = t.replayMisses(layerKernel, func(snap *engine.Snapshot) func(int, request) {
		relaxer := snap.Relaxer()
		return func(op int, r request) {
			_, path, err := relaxer.RelaxTermContextTraced(ctx, r.Term, contexts[op], r.K)
			servedBy[op], answered[op] = path, err == nil
		}
	})
	if err != nil {
		return err
	}

	err = t.replayMisses(layerResolve, func(snap *engine.Snapshot) func(int, request) {
		// The mapper engine.New gives a bundle; the snapshot does not export its own.
		g := snap.Ingestion().Graph
		mapper := match.NewCombined(match.NewExact(g), match.NewEdit(g, 0), match.NewLookupService(g))
		return func(_ int, r request) {
			if _, ok := mapper.Map(r.Term); !ok {
				t.unknown++
			}
		}
	})
	if err != nil {
		return err
	}

	for op := range t.reqs {
		if answered[op] {
			t.paths[servedBy[op]]++
			t.pathTime[servedBy[op]] += t.passes[layerKernel].perReq[op] - t.passes[layerResolve].perReq[op]
		}
	}
	return nil
}

// runTraced runs every pass this workload has and derives the per-layer
// metrics.
func runTraced(ws *workspace, p *plan) (map[string]float64, int, error) {
	n := p.wl.traced / p.wl.batch * p.wl.batch
	t := &tracedRun{p: p, reqs: p.measured[:n], began: time.Now(), outer: layerHTTP, probe: newHostProbe(1)}
	if p.wl.routed {
		t.outer = layerRouter
	}
	steps := []func() error{t.servingPass, t.handlerPass, t.httpPass}
	if p.wl.routed {
		steps = append(steps, t.routerPass)
	}
	steps = append(steps, t.innerPasses)
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, 0, err
		}
	}
	for layer := layerHandler; layer <= t.outer; layer++ {
		if got, want := t.passes[layer].misses, t.passes[layerServing].misses; got != want {
			return nil, 0, fmt.Errorf("%s saw %d cache misses where %s saw %d: the replays diverged", layerEntry[layer], got, layerEntry[layerServing], want)
		}
	}
	if err := writeSpans(ws, t.spans); err != nil {
		return nil, 0, err
	}
	return t.metrics(), t.mismatched, nil
}

// pathMetrics names, per compute path, the share of answered misses it
// served and its mean kernel time.
var pathMetrics = [3]struct{ share, kernel string }{
	core.PathLive:         {"core.path.live_share", "core.kernel.live_us"},
	core.PathMaterialized: {"core.path.materialized_share", "core.kernel.materialized_us"},
	core.PathIndexed:      {"core.path.indexed_share", "core.kernel.indexed_us"},
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (t *tracedRun) metrics() map[string]float64 {
	n := float64(len(t.reqs))
	slow := t.probe.slowdown()
	totals := make([]float64, t.outer+1)
	for layer := range totals {
		totals[layer] = us(t.passes[layer].total) / slow
	}
	self := selfTimes(totals)
	handlerName := "server.handler.self_us"
	if t.p.wl.batch > 1 {
		handlerName = "server.batch.self_us_per_item"
	}
	m := map[string]float64{
		"match.resolve.self_us": self[layerResolve] / n,
		"core.kernel.self_us":   self[layerKernel] / n,
		"engine.relax.self_us":  self[layerEngine] / n,
		"serving.relax.self_us": self[layerServing] / n,
		handlerName:             self[layerHandler] / n,
		"client.http.self_us":   self[layerHTTP] / n,
		"trace.outer_us":        totals[t.outer] / n,
	}
	if t.outer == layerRouter {
		m["router.hop.self_us"] = self[layerRouter] / n
	}

	misses := t.passes[layerServing].misses
	m["serving.cache.hit_ratio"] = 1 - float64(misses)/n
	// The engine does not export its eviction counter; every successful miss
	// inserts one entry, so the inserts the cache did not keep were evicted.
	m["serving.cache.evictions_per_kq"] = 1000 * float64(max(misses-t.missErrs-t.entriesDelta, 0)) / n
	m["server.handler.allocs_per_op"] = (float64(t.passes[layerHandler].mallocs) - float64(t.passes[layerServing].mallocs)) / n
	m["server.response_bytes_per_op"] = float64(t.respBytes) / n
	if misses > 0 {
		k, r := t.passes[layerKernel], t.passes[layerResolve]
		m["core.kernel.allocs_per_op"] = (float64(k.mallocs) - float64(r.mallocs)) / float64(misses)
		m["core.kernel.bytes_per_op"] = (float64(k.bytes) - float64(r.bytes)) / float64(misses)
		m["match.resolve.unknown_share"] = float64(t.unknown) / float64(misses)
		m["engine.results_per_query"] = float64(t.results) / float64(misses)
	}
	if answered := t.paths[core.PathLive] + t.paths[core.PathMaterialized] + t.paths[core.PathIndexed]; answered > 0 {
		for path, names := range pathMetrics {
			m[names.share] = float64(t.paths[path]) / float64(answered)
			if t.paths[path] > 0 {
				m[names.kernel] = us(t.pathTime[path]) / slow / float64(t.paths[path])
			}
		}
	}
	return m
}

func (ws *workspace) spansPath() string {
	return filepath.Join(ws.root, "bench", "out", "spans.jsonl")
}

// writeSpans appends to the span file; whoever starts a run or a ledger
// removes the stale one.
func writeSpans(ws *workspace, spans []span) error {
	f, err := os.OpenFile(ws.spansPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
