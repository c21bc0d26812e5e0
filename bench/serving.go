package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/persist"
	"medrelax/internal/server"
)

// workload is one named traffic mix. rate is the open-loop arrival rate in
// operations per second, calibrated once on the seed commit to 40 % of that
// workload's saturation throughput with the host in its slow state (8.7k,
// 106, 1.9k, 3.35k and 27k operations a second, two significant digits), so
// the open loop stays clear of saturation in either state, and frozen: a
// paced latency only compares across commits if the offered load does not
// follow the code under test.
type workload struct {
	name   string
	world  string
	zipf   bool
	routed bool
	batch  int // requests per round trip
	rate   float64
	// warm is the stream prefix replayed, unmeasured, before a miss
	// workload; the zipf workloads replay their whole key space instead.
	warm int
	// traced is how many measured requests the traced run replays per pass.
	traced int
	// streamLen bounds the pre-generated stream; a run that outlasts it wraps.
	streamLen int
}

var servingWorkloads = []workload{
	{name: "warm_zipf", world: "w100k", zipf: true, batch: 1, rate: 3000, traced: 2000, streamLen: 1 << 19},
	{name: "miss_longtail", world: "w100k", batch: 1, rate: 42, warm: 100, traced: 300, streamLen: 1 << 14},
	{name: "miss_small", world: "w2k", batch: 1, rate: 600, warm: 2000, traced: 2000, streamLen: 1 << 17},
	{name: "routed_zipf", world: "w100k", zipf: true, routed: true, batch: 1, rate: 1200, traced: 2000, streamLen: 1 << 19},
	{name: "batch_zipf", world: "w100k", zipf: true, batch: 16, rate: 11000, traced: 2000, streamLen: 1 << 19},
}

const offlineWorkload = "offline_build"

func findWorkload(name string) (workload, bool) {
	for _, w := range servingWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// cycles is how many times a run alternates its two kinds of measured
	// block. The host's speed wanders on every scale from a second up, so
	// both kinds sample the whole run instead of one half each, and a
	// stretch the neighbours took lands in a few blocks of either.
	cycles      = 32
	checkedKeys = 100 // first distinct measured requests compared to the reference
)

// rankedTerms lists the flagged concepts' names by corpus frequency,
// descending, ties by ID — the order materialization picks its head in, so
// popularity in the streams and "materialized" in the bundle mean the same
// concepts.
func rankedTerms(ing *core.Ingestion) []string {
	ids := ing.FlaggedIDs()
	sort.Slice(ids, func(i, j int) bool {
		fi, fj := ing.Frequencies.RawAggregate(ids[i]), ing.Frequencies.RawAggregate(ids[j])
		if fi != fj {
			return fi > fj
		}
		return ids[i] < ids[j]
	})
	terms := make([]string, 0, len(ids))
	for _, id := range ids {
		if c, ok := ing.Graph.Concept(id); ok {
			terms = append(terms, strings.Clone(c.Name)) // the name may live in the bundle's mapping
		}
	}
	return terms
}

// contextChoices is "no context" plus every context of the ontology.
func contextChoices(ing *core.Ingestion) []string {
	out := []string{""}
	for _, c := range ing.Contexts {
		out = append(out, strings.Clone(c.String()))
	}
	sort.Strings(out[1:])
	return out
}

// plan is everything a serving run derives from (workload, seed, bundle)
// before any server starts.
type plan struct {
	wl       workload
	bundle   string
	warmup   []request // replayed unmeasured
	measured []request // the stream the blocks and the traced passes consume
	refs     map[string]refBody
}

// makePlan loads the bundle in-process, derives the streams from its term
// ranking, and has the reference answer the checked keys.
func makePlan(wl workload, bundle string, seed int64) (*plan, error) {
	ing, err := persist.LoadFile(bundle)
	if err != nil {
		return nil, err
	}
	defer ing.Close()
	ranked := rankedTerms(ing)
	if len(ranked) < 2 {
		return nil, fmt.Errorf("bundle %s has %d flagged terms", bundle, len(ranked))
	}
	p := &plan{wl: wl, bundle: bundle}
	if wl.zipf {
		p.warmup = zipfKeys(ranked)
		p.measured = zipfStream(seed, ranked, wl.streamLen)
	} else {
		stream := longtailStream(seed, ranked, contextChoices(ing), wl.warm+wl.streamLen)
		p.warmup, p.measured = stream[:wl.warm], stream[wl.warm:]
	}
	p.refs = referenceBodies(ing, firstDistinct(p.measured, checkedKeys))
	return p, nil
}

// referenceBodies answers reqs with server.New over the same ingestion with
// the accelerators detached and no serving layer: the live traversal,
// through the same handler that encodes a served body.
func referenceBodies(ing *core.Ingestion, reqs []request) map[string]refBody {
	relax := servingRelax
	if ing.Materialized != nil {
		relax = ing.Materialized.Options()
	}
	ing.Materialized, ing.Candidates = nil, nil
	h := server.New(engine.New(ing, engine.Config{Relax: relax})).Handler()

	bodies := make([]refBody, len(reqs))
	var wg sync.WaitGroup
	workers := connections()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, reqs[i].path(), nil))
				bodies[i] = refBody{status: rec.Code, body: rec.Body.Bytes()}
			}
		}(w)
	}
	wg.Wait()
	refs := make(map[string]refBody, len(reqs))
	for i, r := range reqs {
		refs[r.key()] = bodies[i]
	}
	return refs
}

// liveRun is what one pass over the real binaries measured. Times are as
// the wall clock and the kernel counted them; slowdown is what the metrics
// divide them by.
type liveRun struct {
	build                 float64 // s: go build of the servers, and the bundle when the cache had none
	setup                 float64 // s: everything after that, up to the first measured request
	paced                 []pacedSample
	saturated             []closedSample
	pacedOps, saturateOps int                      // correct operations per kind of block
	blockCPU              []float64                // per paced block: ms of CPU of all server-side processes per correct operation
	blockRates            []float64                // per saturate block: correct operations a second
	cpu                   map[string]time.Duration // per process, both kinds of block
	rss                   map[string]float64       // MB
	counters              map[string]float64
	attempted, failed     int
	checked, mismatched   int
	bundleMB              float64
	stealShare            float64 // of all CPU ticks during the blocks, those the hypervisor withheld
	probe                 *hostProbe
}

// runLive builds what is missing, then sets up — streams and reference
// bodies, fresh server processes, warm-up — and measures for measure:
// cycles times over, a reading of the host probe, a paced block (open loop),
// another reading, a saturate block (closed loop on every connection).
func runLive(ws *workspace, wl workload, seed int64, measure time.Duration) (*plan, *liveRun, error) {
	workers := connections()
	run := &liveRun{cpu: map[string]time.Duration{}, rss: map[string]float64{}, probe: newHostProbe(workers)}

	// Building is not set-up: the bundle is cached per source tree, so its
	// cost falls on the first run after a change and on no other.
	start := time.Now()
	if err := ws.buildServers(); err != nil {
		return nil, nil, err
	}
	bundle, err := ws.ensureBundle(wl.world)
	if err != nil {
		return nil, nil, err
	}
	run.build = time.Since(start).Seconds()
	run.bundleMB = fileMB(bundle)

	run.probe.read() // the host as set-up found it; the first cycle reads it as set-up left it
	start = time.Now()
	p, err := makePlan(wl, bundle, seed)
	if err != nil {
		return nil, nil, err
	}
	planned := time.Since(start)
	fl, err := boot(ws, bundle, wl.routed, filepath.Join(ws.root, "bench", "out", "logs", wl.name))
	if err != nil {
		return nil, nil, err
	}
	defer fl.stop()
	booted := time.Since(start)

	cl := newClient(fl.front(), workers, wl.batch, p.refs)
	defer cl.close()
	if err := warmUp(cl, workers, p.warmup, wl.batch); err != nil {
		return nil, nil, err
	}
	cl.attempted.Store(0)
	cl.checked.Store(0)
	run.setup = time.Since(start).Seconds()
	logf("%s: build %.2fs; set-up %.2fs = streams and reference bodies %.2fs + boot %.2fs + warm-up %.2fs",
		wl.name, run.build, run.setup, planned.Seconds(), (booted - planned).Seconds(), run.setup-booted.Seconds())

	trips := roundTrips(p.measured, wl.batch)
	blockDur := measure / (2 * cycles)
	due := poissonArrivals(seed, wl.rate/float64(wl.batch), cycles*blockDur)
	counters0, err := scrapeFleet(fl)
	if err != nil {
		return nil, nil, err
	}
	stolen0, ticks0 := hostTicks()
	// next is the round trip the stream has reached: the blocks consume it in
	// order, so no cache sees a request sooner than one long phase would
	// have shown it.
	next := 0
	for c := 0; c < cycles; c++ {
		run.probe.read()
		// The arrivals due during this block's share of the schedule,
		// counted from the block's own start.
		var blockDue []time.Duration
		for ; len(due) > 0 && due[0] < time.Duration(c+1)*blockDur; due = due[1:] {
			blockDue = append(blockDue, due[0]-time.Duration(c)*blockDur)
		}
		cpu0, err := fleetCPU(fl)
		if err != nil {
			return nil, nil, err
		}
		first := next
		next += len(blockDue)
		samples := runPaced(wallClock{}, workers, blockDue, func(w, i int) int { return cl.do(w, trips(first+i)) })
		pacedCPU, err := cpuSince(fl, cpu0)
		if err != nil {
			return nil, nil, err
		}
		run.paced = append(run.paced, samples...)
		ok := 0
		for _, s := range samples {
			ok += s.ok
		}
		run.pacedOps += ok
		var blockCPU time.Duration
		for name, d := range pacedCPU {
			blockCPU += d
			run.cpu[name] += d
		}
		if ok > 0 {
			run.blockCPU = append(run.blockCPU, ms(blockCPU)/float64(ok))
		}

		run.probe.read()
		if cpu0, err = fleetCPU(fl); err != nil {
			return nil, nil, err
		}
		first = next
		saturated := runClosed(workers,
			func(_ int, elapsed time.Duration) bool { return elapsed < blockDur },
			func(w, i int) int { return cl.do(w, trips(first+i)) })
		next += len(saturated)
		saturateCPU, err := cpuSince(fl, cpu0)
		if err != nil {
			return nil, nil, err
		}
		for name, d := range saturateCPU {
			run.cpu[name] += d
		}
		run.saturated = append(run.saturated, saturated...)
		done := make([]completion, len(saturated))
		for i, s := range saturated {
			done[i] = s.completion
			run.saturateOps += s.ops
		}
		run.blockRates = append(run.blockRates, blockRate(done, blockDur))
	}
	if stolen1, ticks1 := hostTicks(); ticks1 > ticks0 {
		run.stealShare = (stolen1 - stolen0) / (ticks1 - ticks0)
	}
	logf("%s as the wall clock read it: set-up %.3f s, p50 %.4f ms, %.1f operations a second, %.5f ms of CPU a query",
		wl.name, run.setup, percentile(run.pacedLatencies(), 0.50), median(run.blockRates), median(run.blockCPU))
	logf("%s: host %.3f times slower than the reference (%d probe readings), %.1f %% of its CPU time stolen",
		wl.name, run.probe.slowdown(), len(run.probe.readings), 100*run.stealShare)
	for _, pr := range fl.all() {
		if run.rss[pr.name], err = pr.peakRSS(); err != nil {
			return nil, nil, err
		}
	}
	if run.counters, err = scrapeFleet(fl); err != nil {
		return nil, nil, err
	}
	for name, v := range counters0 {
		run.counters[name] -= v // the measured blocks only, not warm-up
	}
	run.attempted, run.failed = int(cl.attempted.Load()), int(cl.failed.Load())
	run.checked, run.mismatched = int(cl.checked.Load()), int(cl.mismatched.Load())
	return p, run, nil
}

// warmUp replays reqs once, unmeasured, in round trips of size (the last
// one short, so that no key is left cold). A replay with failures is
// repeated once: on a host stalled by its neighbours a cold batch can
// overrun the server's 2-s relax deadline, and the second time most of it
// is cached. Failures that survive that are not the neighbours' doing.
func warmUp(cl *client, workers int, reqs []request, size int) error {
	var trips [][]request
	for i := 0; i < len(reqs); i += size {
		trips = append(trips, reqs[i:min(i+size, len(reqs))])
	}
	for attempt := 0; ; attempt++ {
		cl.failed.Store(0)
		runClosed(workers, func(i int, _ time.Duration) bool { return i < len(trips) }, func(w, i int) int { return cl.do(w, trips[i]) })
		failed := cl.failed.Load()
		if failed == 0 {
			return nil
		}
		if attempt == 1 {
			return fmt.Errorf("%d of %d warm-up operations failed twice", failed, len(reqs))
		}
	}
}

// cpuSince is each server-side process's CPU time since before.
func cpuSince(fl *fleet, before map[string]time.Duration) (map[string]time.Duration, error) {
	now, err := fleetCPU(fl)
	if err != nil {
		return nil, err
	}
	for name := range now {
		now[name] -= before[name]
	}
	return now, nil
}

func fleetCPU(fl *fleet) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	for _, p := range fl.all() {
		c, err := p.cpu()
		if err != nil {
			return nil, err
		}
		out[p.name] = c
	}
	return out, nil
}

// scrapeFleet reads the servers' own counters, summed over replicas.
func scrapeFleet(fl *fleet) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range fl.replicas {
		m, err := p.scrape("medrelax_relax_cache_hits_total", "medrelax_relax_cache_misses_total",
			"medrelax_relax_cache_collapsed_total", "medrelax_http_shed_total")
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	if fl.router != nil {
		m, err := fl.router.scrape("kbrouter_replica_retries_total", "kbrouter_replica_errors_total", "kbrouter_http_shed_total")
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pacedLatencies is every paced round trip's latency in ms, sorted.
func (run *liveRun) pacedLatencies() []float64 {
	lat := make([]float64, len(run.paced))
	for i, s := range run.paced {
		lat[i] = ms(s.latency)
	}
	sort.Float64s(lat)
	return lat
}

// endToEnd turns a live run into the metrics a user of the system sees, on
// the reference host: every time is divided by the run's slowdown, every
// rate multiplied by it. The latency is the median of every paced round trip
// of the run; throughput and CPU per query are medians over the blocks, so
// that a block the neighbours stalled moves neither.
func (run *liveRun) endToEnd() map[string]float64 {
	var rss float64
	for _, r := range run.rss {
		rss += r
	}
	slow := run.probe.slowdown()
	return map[string]float64{
		"setup_s":          run.setup / slow,
		"p50_ms":           percentile(run.pacedLatencies(), 0.50) / slow,
		"throughput_qps":   median(run.blockRates) * slow,
		"cpu_ms_per_query": median(run.blockCPU) / slow,
		"peak_rss_mb":      rss,
		"bundle_mb":        run.bundleMB,
	}
}

// liveLayers are the per-layer metrics only the live processes can give:
// their own counters, their CPU split by process, how the open-loop
// generator behaved, and what the host was doing. Times are on the
// reference host, as in endToEnd; times host.slowdown is what the wall
// clock read.
func (run *liveRun) liveLayers() map[string]float64 {
	late := 0
	for _, s := range run.paced {
		if s.late > time.Millisecond {
			late++
		}
	}
	lat := run.pacedLatencies()
	slow := run.probe.slowdown()
	ops := float64(max(run.pacedOps+run.saturateOps, 1))
	var replicaCPU time.Duration
	for name, c := range run.cpu {
		if name != "kbrouter" {
			replicaCPU += c
		}
	}
	c := run.counters
	lookups := c["medrelax_relax_cache_hits_total"] + c["medrelax_relax_cache_misses_total"] + c["medrelax_relax_cache_collapsed_total"]
	m := map[string]float64{
		"setup.build_s":               run.build,
		"serving.shed_total":          c["medrelax_http_shed_total"] + c["kbrouter_http_shed_total"],
		"router.retries_total":        c["kbrouter_replica_retries_total"],
		"router.replica_errors_total": c["kbrouter_replica_errors_total"],
		"router.cpu_ms_per_query":     ms(run.cpu["kbrouter"]) / ops / slow,
		"replica.cpu_ms_per_query":    ms(replicaCPU) / ops / slow,
		"client.late_share":           float64(late) / float64(max(len(run.paced), 1)),
		"client.p95_ms":               percentile(lat, 0.95) / slow,
		"client.p99_ms":               percentile(lat, 0.99) / slow,
		"client.max_ms":               percentile(lat, 1) / slow,
		"client.paced_samples":        float64(len(run.paced)),
		"error_share":                 float64(run.failed) / float64(max(run.attempted, 1)),
		"host.slowdown":               slow,
		"host.steal_share":            run.stealShare,
	}
	if lookups > 0 {
		m["serving.cache.hit_ratio_live"] = c["medrelax_relax_cache_hits_total"] / lookups
		m["serving.cache.collapsed_share"] = c["medrelax_relax_cache_collapsed_total"] / lookups
	}
	return m
}

// runServing is one serving workload in one trace mode. The traced run
// drives the live processes first, exactly as the untraced one does: some
// layer metrics exist only there, and the in-process budget is only worth
// something next to the real latency it is meant to explain.
func runServing(ws *workspace, wl workload, seed int64, measure time.Duration, traced bool) (map[string]float64, result, error) {
	p, run, err := runLive(ws, wl, seed, measure)
	if err != nil {
		return nil, result{}, err
	}
	res := result{Correct: run.mismatched == 0 && run.checked > 0, Attempted: run.attempted, Failed: run.failed}
	if !traced {
		return run.endToEnd(), res, nil
	}
	values := run.liveLayers()
	layers, mismatched, err := runTraced(ws, p)
	if err != nil {
		return nil, result{}, err
	}
	for k, v := range layers {
		values[k] = v
	}
	// How far the in-process budget is from the real thing: traced mean per
	// operation over the untraced closed-loop mean, each on the reference host.
	var sum time.Duration
	for _, s := range run.saturated {
		sum += s.latency
	}
	if run.saturateOps > 0 {
		values["trace.http_over_e2e"] = layers["trace.outer_us"] / (us(sum) / run.probe.slowdown() / float64(run.saturateOps))
	}
	res.Correct = res.Correct && mismatched == 0
	return values, res, nil
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / (1 << 20)
}
