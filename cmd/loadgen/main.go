// Command loadgen drives a running kbserver with a zipfian query mix —
// the head-heavy term distribution query-expansion traffic actually has —
// and records what the serving layer does under it: cold vs warm tail
// latency, cache hit/miss/collapse counts, shed behavior past the
// concurrency limit, batch amortization through POST /relax/batch, and —
// against a multi-tenant server — per-tenant warm-up via /t/{name}/
// routing. Results go to BENCH_serve.json and a Markdown summary, so
// cache, admission, and batch behavior is benchmarked, not asserted.
//
// Usage (against a fresh server so the cold phase is really cold):
//
//	kbserver -addr :8080 -load bundle.bin &
//	loadgen -addr http://127.0.0.1:8080 -duration 10s
//
//	kbserver -addr :8080 -bundle alpha=a.bin -bundle beta=b.bin &
//	loadgen -addr http://127.0.0.1:8080 -tenants alpha,beta
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"medrelax/internal/engine"
	"medrelax/internal/persist"
	"medrelax/internal/retry"
	"medrelax/internal/trace"
)

type phaseStats struct {
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	Retries    int     `json:"retries,omitempty"`
	P50Ms      float64 `json:"p50Ms"`
	P95Ms      float64 `json:"p95Ms"`
	P99Ms      float64 `json:"p99Ms"`
	MeanMs     float64 `json:"meanMs"`
	Throughput float64 `json:"requestsPerSecond"`

	// P99LowMs/P99HighMs bound the p99 estimate: the latency stream is
	// cut into arrival-order blocks, p99 is computed per block, and the
	// spread across blocks is reported. A tail statistic from a few
	// hundred samples is noise; the bound says how much.
	P99LowMs  float64 `json:"p99LowMs,omitempty"`
	P99HighMs float64 `json:"p99HighMs,omitempty"`
}

// relaxRetry issues one /relax query, retrying shed (429) and transient
// (503) responses plus transport errors under the shared retry policy. It
// returns the final attempt's latency and status and how many retries were
// spent; status 0 means even the last attempt failed at the transport
// layer.
func relaxRetry(client *http.Client, addr, term string, k int, pol retry.Policy, rng *rand.Rand) (time.Duration, int, int) {
	retries := 0
	for attempt := 0; ; attempt++ {
		url := fmt.Sprintf("%s/relax?term=%s&k=%d", addr, queryEscape(term), k)
		start := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			if attempt < pol.MaxRetries {
				time.Sleep(pol.Wait(attempt, 0, rng))
				retries++
				continue
			}
			return 0, 0, retries
		}
		retryAfter := retry.After(resp.Header)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(start)
		if retry.RetryableStatus(resp.StatusCode) && attempt < pol.MaxRetries {
			time.Sleep(pol.Wait(attempt, retryAfter, rng))
			retries++
			continue
		}
		return d, resp.StatusCode, retries
	}
}

type burstStats struct {
	Requests int `json:"requests"`
	OK       int `json:"ok"`
	Shed     int `json:"shed429"`
	Errors   int `json:"errors"`
}

// batchStats is the batch phase's record for one batch size.
type batchStats struct {
	Size        int     `json:"size"`
	Batches     int     `json:"batches"`
	Errors      int     `json:"errors"`
	P50Ms       float64 `json:"p50Ms"`
	P95Ms       float64 `json:"p95Ms"`
	ItemsPerSec float64 `json:"itemsPerSecond"`
}

// explainStats is the explain phase's record: the attributed-explanation
// variant of GET /relax (`explain=true`) measured against the classic
// responses. Warm rows are cache hits — explain variants cache under their
// own key, so the first explain pass pays assembly and later passes do
// not. Uncached rows carry `Cache-Control: no-store`, pricing the per-path
// explain assembly itself rather than the cache. PlainUnchanged is the
// byte-identity contract: explain traffic must leave explain=false
// responses byte-for-byte untouched.
type explainStats struct {
	WarmPlain             phaseStats `json:"warmPlain"`
	FirstPassOn           phaseStats `json:"explainFirstPass"`
	WarmOn                phaseStats `json:"explainWarm"`
	UncachedPlain         phaseStats `json:"uncachedPlain"`
	UncachedOn            phaseStats `json:"uncachedExplain"`
	WarmOverheadP95Ms     float64    `json:"explainWarmP95OverheadMs"`
	UncachedOverheadP95Ms float64    `json:"explainUncachedP95OverheadMs"`
	PlainUnchanged        bool       `json:"plainBytesUnchangedByExplain"`
	ExplainFieldsSeen     bool       `json:"explainFieldsPresent"`
}

type report struct {
	Addr          string  `json:"addr"`
	Terms         int     `json:"terms"`
	ZipfS         float64 `json:"zipfS"`
	K             int     `json:"k"`
	Concurrency   int     `json:"concurrency"`
	DurationSec   float64 `json:"warmDurationSeconds"`
	BurstWorkers  int     `json:"burstWorkers"`
	GeneratededAt string  `json:"generatedAt"`

	Cold      phaseStats `json:"cold"`
	Warm      phaseStats `json:"warm"`
	ColdSweep phaseStats `json:"coldSweep"`
	Burst     burstStats `json:"burst"`

	WarmSpeedupP95        float64 `json:"warmSpeedupP95"`
	UncachedBaselineP50Ms float64 `json:"uncachedBaselineP50Ms,omitempty"`
	UncachedSpeedupP50    float64 `json:"uncachedSpeedupP50,omitempty"`
	ByteIdentical         bool    `json:"cachedResponsesByteIdentical"`

	Batch              []batchStats `json:"batch,omitempty"`
	BatchByteIdentical bool         `json:"batchItemsByteIdenticalToSequential"`
	BatchItemSpeedup   float64      `json:"batchItemSpeedupVsSequential,omitempty"`

	Explain *explainStats `json:"explain,omitempty"`

	Tenants map[string]phaseStats `json:"tenants,omitempty"`

	Density *densityStats `json:"density,omitempty"`

	Router *routerStats `json:"router,omitempty"`

	Trace *traceStats `json:"trace,omitempty"`

	ServerMetrics map[string]float64 `json:"serverMetrics"`
}

// routerStats is the router phase's record: the same zipfian workload
// driven back-to-back through one kbserver replica directly and through
// kbrouter fronting the cluster, plus a batch byte-identity check across
// the scatter-gather path.
type routerStats struct {
	Addr               string             `json:"addr"`
	Direct             phaseStats         `json:"direct"`
	ViaRouter          phaseStats         `json:"viaRouter"`
	ThroughputRatio    float64            `json:"routerOverDirectThroughput,omitempty"`
	P95OverheadMs      float64            `json:"routerP95OverheadMs"`
	BatchByteIdentical bool               `json:"batchByteIdenticalToDirect"`
	RouterMetrics      map[string]float64 `json:"routerMetrics,omitempty"`
}

// traceStage is the latency distribution of one span name across the
// traced requests — one serving stage (router admission, scatter leg,
// replica cache probe, relax kernel) isolated from end-to-end latency.
type traceStage struct {
	Span  string  `json:"span"`
	Count int     `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
}

// traceStats is the trace phase's record: explicitly-traced requests
// (client-minted traceparent headers), the traces recovered from
// /debug/traces afterwards, and the per-stage breakdown.
type traceStats struct {
	Addr      string       `json:"addr"`
	Requested int          `json:"tracedRequests"`
	Captured  int          `json:"tracesCaptured"`
	Stages    []traceStage `json:"stages,omitempty"`
}

// densityStats is a bundle's multi-tenant residency measurement: N
// snapshots of it loaded side by side, RSS sampled from
// /proc/self/status.
type densityStats struct {
	Format      string  `json:"format"`
	Residency   string  `json:"residency"`
	BundleBytes int64   `json:"bundleBytes"`
	Tenants     int     `json:"tenants"`
	LoadTotalMs float64 `json:"loadTotalMs"`
	// RSSTotalDeltaKB is resident-set growth from zero to N tenants;
	// RSSPerTenantKB averages it. RSSMarginalPerTenantKB is the growth per
	// tenant after the first — the marginal cost of one more tenant of the
	// same bundle, which is where file-backed mapped pages pay off.
	RSSTotalDeltaKB        int64   `json:"rssTotalDeltaKB"`
	RSSPerTenantKB         float64 `json:"rssPerTenantKB"`
	RSSMarginalPerTenantKB float64 `json:"rssMarginalPerTenantKB"`
}

// batchQuery and batchItemResp mirror the wire shapes of POST /relax/batch.
type batchQuery struct {
	Term    string `json:"term"`
	Context string `json:"context,omitempty"`
	K       int    `json:"k"`
}

type batchItemResp struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8080", "kbserver base URL")
		terms      = flag.Int("terms", 200, "distinct terms to fetch from /terms")
		zipfS      = flag.Float64("zipf-s", 1.2, "zipf skew (>1; larger = heavier head)")
		k          = flag.Int("k", 10, "k per /relax request")
		conc       = flag.Int("conc", 16, "concurrent workers in the warm phase")
		duration   = flag.Duration("duration", 10*time.Second, "warm phase duration")
		burstN     = flag.Int("burst", 128, "concurrent workers in the shed burst (0 skips)")
		burstReq   = flag.Int("burst-requests", 20, "requests per burst worker")
		seed       = flag.Int64("seed", 1, "workload seed")
		coldN      = flag.Int("cold-samples", 2000, "uncached samples for the cold and coldsweep phases (one pass over the terms at minimum)")
		baseP50    = flag.Float64("baseline-cold-p50-ms", 0, "prior uncached p50 in ms; >0 reports the coldsweep speedup against it")
		retries    = flag.Int("retries", 2, "max client retries per request on 429/503 (cold+warm phases; 0 disables)")
		retryLo    = flag.Duration("retry-base", 50*time.Millisecond, "exponential backoff base")
		retryHi    = flag.Duration("retry-cap", 2*time.Second, "exponential backoff cap")
		batchCSV   = flag.String("batch-sizes", "4,16,64", "comma-separated POST /relax/batch sizes for the batch phase (empty skips)")
		batchN     = flag.Int("batch-count", 50, "batches per size in the batch phase")
		tenCSV     = flag.String("tenants", "", "comma-separated tenant names to drive via /t/{name}/ (empty skips; needs kbserver -bundle)")
		tenDur     = flag.Duration("tenant-duration", 3*time.Second, "per-tenant phase duration")
		outJSON    = flag.String("out", "BENCH_serve.json", "JSON report path")
		outMD      = flag.String("md", "results/BENCH_serve.md", "Markdown report path")
		routerAddr = flag.String("router-addr", "", "kbrouter base URL; runs the router phase comparing throughput against the direct -addr replica (empty skips)")
		routerDur  = flag.Duration("router-duration", 5*time.Second, "router phase duration per side (direct, then routed)")
		explainOn  = flag.Bool("explain", false, "run the explain phase: explain=true vs explain=false latency, warm and uncached, plus the plain-response byte-identity check (targets -addr)")
		traceOn    = flag.Bool("trace", false, "run the trace phase: mint traceparent headers, scrape /debug/traces afterwards, and report a per-stage latency breakdown (targets -router-addr when set, else -addr)")
		traceN     = flag.Int("trace-requests", 64, "explicitly-traced GET /relax requests in the trace phase (plus traced batches)")

		denPath = flag.String("density-bundle", "", "bundle to measure multi-tenant RSS density with (empty skips; runs in-process, no server traffic)")
		denN    = flag.Int("density-tenants", 8, "tenant count for the density phase")
		denOnly = flag.Bool("density-only", false, "run only the density phase (no server needed); requires -density-bundle")
	)
	flag.Parse()

	if *denOnly {
		if *denPath == "" {
			log.Fatal("loadgen: -density-only requires -density-bundle")
		}
		den, err := runDensity(*denPath, *denN)
		if err != nil {
			log.Fatalf("loadgen: density phase: %v", err)
		}
		rep := &report{GeneratededAt: time.Now().UTC().Format(time.RFC3339), Density: den}
		if err := writeJSON(*outJSON, rep); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		if err := writeMarkdown(*outMD, rep); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		log.Printf("loadgen: density-only run wrote %s and %s", *outJSON, *outMD)
		return
	}
	pol := retry.Policy{MaxRetries: *retries, Base: *retryLo, Cap: *retryHi}

	// Default transports keep only two idle conns per host: at high
	// worker counts every request would pay TCP setup, measuring the
	// dialer instead of the server. Keep a conn per worker alive.
	maxConns := *conc
	if *burstN > maxConns {
		maxConns = *burstN
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        maxConns + 8,
			MaxIdleConnsPerHost: maxConns + 8,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	termList := fetchTerms(client, *addr, *terms)
	if len(termList) == 0 {
		log.Fatal("loadgen: server returned no terms")
	}
	log.Printf("loadgen: %d terms, zipf s=%.2f, k=%d", len(termList), *zipfS, *k)

	rep := &report{
		Addr: *addr, Terms: len(termList), ZipfS: *zipfS, K: *k,
		Concurrency: *conc, DurationSec: duration.Seconds(), BurstWorkers: *burstN,
		GeneratededAt: time.Now().UTC().Format(time.RFC3339),
	}

	// Phase 1 — cold: every term exactly once against an empty cache, then
	// `Cache-Control: no-store` requests (still uncached computations, but
	// without polluting the now-priming cache) until -cold-samples total.
	// A p99 from one pass over a few hundred terms is mostly noise; the
	// top-up gives the tail estimate enough data to mean something.
	log.Printf("loadgen: cold phase (sequential, all misses, >=%d samples)", *coldN)
	coldLat := make([]time.Duration, 0, *coldN)
	coldErrs, coldRetries := 0, 0
	coldRng := rand.New(rand.NewSource(*seed + 7919))
	coldStart := time.Now()
	for _, term := range termList {
		d, code, r := relaxRetry(client, *addr, term, *k, pol, coldRng)
		coldRetries += r
		if code != http.StatusOK {
			coldErrs++
			continue
		}
		coldLat = append(coldLat, d)
	}
	for len(coldLat)+coldErrs < *coldN {
		term := termList[coldRng.Intn(len(termList))]
		d, code := timedRelaxNoStore(client, *addr, term, *k)
		if code != http.StatusOK {
			coldErrs++
			continue
		}
		coldLat = append(coldLat, d)
	}
	rep.Cold = summarize(coldLat, coldErrs, time.Since(coldStart))
	rep.Cold.Retries = coldRetries

	// Phase 2 — warm: zipfian mix, concurrent, head terms now cached.
	log.Printf("loadgen: warm phase (%d workers, %s)", *conc, *duration)
	var mu sync.Mutex
	warmLat := make([]time.Duration, 0, 1<<16)
	warmErrs, warmRetries := 0, 0
	var wg sync.WaitGroup
	warmStart := time.Now()
	deadline := warmStart.Add(*duration)
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			zipf := rand.NewZipf(rng, *zipfS, 1, uint64(len(termList)-1))
			local := make([]time.Duration, 0, 4096)
			errs, rts := 0, 0
			for time.Now().Before(deadline) {
				term := termList[zipf.Uint64()]
				d, code, r := relaxRetry(client, *addr, term, *k, pol, rng)
				rts += r
				if code != http.StatusOK {
					errs++
					continue
				}
				local = append(local, d)
			}
			mu.Lock()
			warmLat = append(warmLat, local...)
			warmErrs += errs
			warmRetries += rts
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	rep.Warm = summarize(warmLat, warmErrs, time.Since(warmStart))
	rep.Warm.Retries = warmRetries
	if rep.Warm.P95Ms > 0 {
		rep.WarmSpeedupP95 = rep.Cold.P95Ms / rep.Warm.P95Ms
	}

	// Phase 3 — coldsweep: the uncached path on a warm server. Every
	// request carries `Cache-Control: no-store`, so the result cache is
	// out of the measurement entirely — this is the number the offline
	// materialization and candidate index exist to move.
	log.Printf("loadgen: coldsweep phase (sequential, no-store, %d samples)", *coldN)
	sweepLat := make([]time.Duration, 0, *coldN)
	sweepErrs := 0
	sweepRng := rand.New(rand.NewSource(*seed + 104729))
	sweepZipf := rand.NewZipf(sweepRng, *zipfS, 1, uint64(len(termList)-1))
	sweepStart := time.Now()
	for len(sweepLat)+sweepErrs < *coldN {
		term := termList[sweepZipf.Uint64()]
		d, code := timedRelaxNoStore(client, *addr, term, *k)
		if code != http.StatusOK {
			sweepErrs++
			continue
		}
		sweepLat = append(sweepLat, d)
	}
	rep.ColdSweep = summarize(sweepLat, sweepErrs, time.Since(sweepStart))
	if *baseP50 > 0 && rep.ColdSweep.P50Ms > 0 {
		rep.UncachedBaselineP50Ms = *baseP50
		rep.UncachedSpeedupP50 = *baseP50 / rep.ColdSweep.P50Ms
	}

	// Phase 4 — burst: cache-busting random k past the concurrency limit;
	// the server must answer every request immediately with 200 or 429.
	if *burstN > 0 {
		log.Printf("loadgen: shed burst (%d workers x %d requests)", *burstN, *burstReq)
		var ok, shed, errs int
		var bmu sync.Mutex
		for w := 0; w < *burstN; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + 1000 + int64(w)))
				var lok, lshed, lerr int
				for i := 0; i < *burstReq; i++ {
					term := termList[rng.Intn(len(termList))]
					kk := 1 + rng.Intn(1000)
					_, code := timedRelax(client, *addr, term, kk)
					switch code {
					case http.StatusOK:
						lok++
					case http.StatusTooManyRequests:
						lshed++
					default:
						lerr++
					}
				}
				bmu.Lock()
				ok += lok
				shed += lshed
				errs += lerr
				bmu.Unlock()
			}(w)
		}
		wg.Wait()
		rep.Burst = burstStats{Requests: *burstN * *burstReq, OK: ok, Shed: shed, Errors: errs}
	}

	// Phase 5 — cached responses must be byte-identical to uncached ones.
	rep.ByteIdentical = true
	for i := 0; i < 5 && i < len(termList); i++ {
		url := fmt.Sprintf("%s/relax?term=%s&k=%d", *addr, queryEscape(termList[i]), *k)
		a := fetchBody(client, url)
		b := fetchBody(client, url)
		if a == "" || a != b {
			rep.ByteIdentical = false
			log.Printf("loadgen: BYTE MISMATCH for %s", termList[i])
		}
	}

	// Phase 6 — batch: mixed sizes through POST /relax/batch with
	// cache-busting random k, so batches measure shared-scratch
	// computation, not cache lookups; then a byte-identity sweep and a
	// same-size sequential control for the amortization claim.
	rep.BatchByteIdentical = true
	if sizes := parseSizes(*batchCSV); len(sizes) > 0 {
		brng := rand.New(rand.NewSource(*seed + 31337))
		bzipf := rand.NewZipf(brng, *zipfS, 1, uint64(len(termList)-1))
		for _, size := range sizes {
			log.Printf("loadgen: batch phase (size %d x %d batches)", size, *batchN)
			lat := make([]time.Duration, 0, *batchN)
			errs, items := 0, 0
			start := time.Now()
			for b := 0; b < *batchN; b++ {
				queries := make([]batchQuery, size)
				for i := range queries {
					queries[i] = batchQuery{Term: termList[bzipf.Uint64()], K: 1 + brng.Intn(200)}
				}
				d, code, resp := postBatch(client, *addr, queries)
				if code != http.StatusOK || len(resp) != size {
					errs++
					continue
				}
				lat = append(lat, d)
				items += size
			}
			elapsed := time.Since(start)
			st := summarize(lat, errs, elapsed)
			bs := batchStats{Size: size, Batches: *batchN, Errors: errs, P50Ms: st.P50Ms, P95Ms: st.P95Ms}
			if elapsed > 0 {
				bs.ItemsPerSec = float64(items) / elapsed.Seconds()
			}
			rep.Batch = append(rep.Batch, bs)
		}

		// Sequential control: the same item count as the largest batch
		// size's run, one GET /relax per item, same term/k distribution.
		largest := sizes[len(sizes)-1]
		seqItems := largest * *batchN
		seqStart := time.Now()
		for i := 0; i < seqItems; i++ {
			timedRelax(client, *addr, termList[bzipf.Uint64()], 1+brng.Intn(200))
		}
		if el := time.Since(seqStart); el > 0 && len(rep.Batch) > 0 {
			seqRate := float64(seqItems) / el.Seconds()
			if seqRate > 0 {
				rep.BatchItemSpeedup = rep.Batch[len(rep.Batch)-1].ItemsPerSec / seqRate
			}
		}

		// Byte identity: every batch item body must equal the body of the
		// same query issued as GET /relax (the batch ran first, so the
		// sequential side may answer from the batch-populated cache —
		// byte equality is the contract either way).
		idQueries := make([]batchQuery, 0, 8)
		for i := 0; i < 8 && i < len(termList); i++ {
			idQueries = append(idQueries, batchQuery{Term: termList[i], K: 1 + brng.Intn(1000)})
		}
		_, code, items2 := postBatch(client, *addr, idQueries)
		if code != http.StatusOK || len(items2) != len(idQueries) {
			rep.BatchByteIdentical = false
			log.Printf("loadgen: batch identity POST = %d (%d items)", code, len(items2))
		} else {
			for i, q := range idQueries {
				url := fmt.Sprintf("%s/relax?term=%s&k=%d", *addr, queryEscape(q.Term), q.K)
				seq := strings.TrimRight(fetchBody(client, url), "\n")
				if items2[i].Status != http.StatusOK || seq == "" || string(items2[i].Body) != seq {
					rep.BatchByteIdentical = false
					log.Printf("loadgen: BATCH BYTE MISMATCH for %s k=%d", q.Term, q.K)
				}
			}
		}
	}

	// Explain phase — the attributed-explanation variant against the
	// classic responses: warm (explain variants cache under their own key)
	// and uncached (`no-store`), then the byte-identity contract that
	// explain traffic leaves explain=false responses untouched.
	if *explainOn {
		rep.Explain = runExplainPhase(client, *addr, termList, *k)
	}

	// Phase 7 — tenants: drive each named tenant through its /t/{name}/
	// prefix. Separate cache partitions mean each tenant pays its own
	// cold misses and warms independently.
	if *tenCSV != "" {
		rep.Tenants = map[string]phaseStats{}
		for _, name := range strings.Split(*tenCSV, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			base := strings.TrimRight(*addr, "/") + "/t/" + name
			tTerms := fetchTerms(client, base, *terms)
			if len(tTerms) == 0 {
				log.Fatalf("loadgen: tenant %q returned no terms", name)
			}
			log.Printf("loadgen: tenant phase (%q, %d terms, %s)", name, len(tTerms), *tenDur)
			trng := rand.New(rand.NewSource(*seed + 53 + int64(len(name))))
			tzipf := rand.NewZipf(trng, *zipfS, 1, uint64(len(tTerms)-1))
			lat := make([]time.Duration, 0, 4096)
			errs := 0
			start := time.Now()
			deadline := start.Add(*tenDur)
			for time.Now().Before(deadline) {
				d, code := timedRelax(client, base, tTerms[tzipf.Uint64()], *k)
				if code != http.StatusOK {
					errs++
					continue
				}
				lat = append(lat, d)
			}
			rep.Tenants[name] = summarize(lat, errs, time.Since(start))
		}
	}

	// Phase 8 — router: the same workload through kbrouter fronting the
	// cluster vs one replica directly. Direct side runs first so both
	// sides see equally-warm caches; the routed side then pays consistent
	// hashing, health bookkeeping, and one extra network hop — the number
	// this phase exists to bound.
	if *routerAddr != "" {
		rep.Router = runRouterPhase(client, *addr, *routerAddr, termList, pol, *zipfS, *k, *conc, *routerDur, *seed)
	}

	// Trace phase — explicitly-traced requests with client-minted
	// traceparent headers, then /debug/traces scraped to break end-to-end
	// latency into serving stages. Runs after the traffic phases so the
	// ring buffer's newest entries are ours.
	if *traceOn {
		target := *addr
		if *routerAddr != "" {
			target = *routerAddr
		}
		rep.Trace = runTracePhase(client, target, termList, *k, *traceN, *seed)
	}

	// Phase 9 — density: how much resident memory N tenants of the same
	// bundle cost. Runs in this process (the phase is about snapshot
	// residency, not server traffic), so RSS deltas are clean of the HTTP
	// client's buffers.
	if *denPath != "" {
		den, err := runDensity(*denPath, *denN)
		if err != nil {
			log.Fatalf("loadgen: density phase: %v", err)
		}
		rep.Density = den
	}

	rep.ServerMetrics = scrapeMetrics(client, *addr)

	if err := writeJSON(*outJSON, rep); err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	if err := writeMarkdown(*outMD, rep); err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	log.Printf("loadgen: cold p95 %.2fms, warm p95 %.2fms (%.1fx), uncached p50 %.3fms, %d shed, wrote %s and %s",
		rep.Cold.P95Ms, rep.Warm.P95Ms, rep.WarmSpeedupP95, rep.ColdSweep.P50Ms, rep.Burst.Shed, *outJSON, *outMD)
}

// runExplainPhase measures the explain=true variant of GET /relax against
// the classic responses, warm and uncached, then checks that the explain
// traffic left explain=false responses byte-identical. All passes walk the
// same term list sequentially so the rows compare like against like.
func runExplainPhase(client *http.Client, addr string, termList []string, k int) *explainStats {
	es := &explainStats{PlainUnchanged: true}

	relaxURL := func(term string, explain bool) string {
		u := fmt.Sprintf("%s/relax?term=%s&k=%d", addr, queryEscape(term), k)
		if explain {
			u += "&explain=true"
		}
		return u
	}
	sweep := func(explain, noStore bool) phaseStats {
		lat := make([]time.Duration, 0, len(termList))
		errs := 0
		start := time.Now()
		for _, term := range termList {
			req, err := http.NewRequest(http.MethodGet, relaxURL(term, explain), nil)
			if err != nil {
				errs++
				continue
			}
			if noStore {
				req.Header.Set("Cache-Control", "no-store")
			}
			rstart := time.Now()
			resp, err := client.Do(req)
			if err != nil {
				errs++
				continue
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil || resp.StatusCode != http.StatusOK {
				errs++
				continue
			}
			lat = append(lat, time.Since(rstart))
			if explain && strings.Contains(string(body), `"explain"`) {
				es.ExplainFieldsSeen = true
			}
		}
		return summarize(lat, errs, time.Since(start))
	}

	// Snapshot plain bodies before any explain traffic so the identity
	// check can prove the explain variants never leak into the plain cache.
	idN := 8
	if idN > len(termList) {
		idN = len(termList)
	}
	before := make([]string, idN)
	for i := 0; i < idN; i++ {
		before[i] = fetchBody(client, relaxURL(termList[i], false))
	}

	log.Printf("loadgen: explain phase (%d terms: warm plain, explain first pass, explain warm, uncached both)", len(termList))
	es.WarmPlain = sweep(false, false)  // cached since the earlier phases
	es.FirstPassOn = sweep(true, false) // explain variant misses: pays path assembly
	es.WarmOn = sweep(true, false)      // explain variant hits
	es.UncachedPlain = sweep(false, true)
	es.UncachedOn = sweep(true, true)
	es.WarmOverheadP95Ms = es.WarmOn.P95Ms - es.WarmPlain.P95Ms
	es.UncachedOverheadP95Ms = es.UncachedOn.P95Ms - es.UncachedPlain.P95Ms

	for i := 0; i < idN; i++ {
		after := fetchBody(client, relaxURL(termList[i], false))
		if before[i] == "" || before[i] != after {
			es.PlainUnchanged = false
			log.Printf("loadgen: EXPLAIN PLAIN BYTE MISMATCH for %s", termList[i])
		}
	}
	return es
}

// runRouterPhase drives the zipfian mix through one replica directly and
// then through kbrouter, back to back, and checks scatter-gather batch
// bytes against the direct replica.
func runRouterPhase(client *http.Client, direct, routerAddr string, termList []string, pol retry.Policy, zipfS float64, k, conc int, dur time.Duration, seed int64) *routerStats {
	rs := &routerStats{Addr: routerAddr, BatchByteIdentical: true}

	measure := func(base string, seedOff int64) phaseStats {
		var mu sync.Mutex
		lat := make([]time.Duration, 0, 1<<14)
		errs, rts := 0, 0
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(dur)
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + seedOff + int64(w)))
				zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(termList)-1))
				local := make([]time.Duration, 0, 4096)
				lerrs, lrts := 0, 0
				for time.Now().Before(deadline) {
					d, code, r := relaxRetry(client, base, termList[zipf.Uint64()], k, pol, rng)
					lrts += r
					if code != http.StatusOK {
						lerrs++
						continue
					}
					local = append(local, d)
				}
				mu.Lock()
				lat = append(lat, local...)
				errs += lerrs
				rts += lrts
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		st := summarize(lat, errs, time.Since(start))
		st.Retries = rts
		return st
	}

	log.Printf("loadgen: router phase, direct side (%d workers, %s against %s)", conc, dur, direct)
	rs.Direct = measure(direct, 424243)
	log.Printf("loadgen: router phase, routed side (%d workers, %s against %s)", conc, dur, routerAddr)
	rs.ViaRouter = measure(routerAddr, 424243)
	if rs.Direct.Throughput > 0 {
		rs.ThroughputRatio = rs.ViaRouter.Throughput / rs.Direct.Throughput
	}
	rs.P95OverheadMs = rs.ViaRouter.P95Ms - rs.Direct.P95Ms

	// Batch byte-identity across the scatter-gather: the same POST body
	// must come back byte-equal from the router and from one replica.
	brng := rand.New(rand.NewSource(seed + 777))
	bzipf := rand.NewZipf(brng, zipfS, 1, uint64(len(termList)-1))
	queries := make([]batchQuery, 32)
	for i := range queries {
		queries[i] = batchQuery{Term: termList[bzipf.Uint64()], K: 1 + brng.Intn(100)}
	}
	payload, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		rs.BatchByteIdentical = false
		return rs
	}
	post := func(base string) []byte {
		resp, err := client.Post(base+"/relax/batch", "application/json", bytes.NewReader(payload))
		if err != nil {
			return nil
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil
		}
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	d := post(direct)
	r := post(routerAddr)
	if d == nil || r == nil || !bytes.Equal(d, r) {
		rs.BatchByteIdentical = false
		log.Printf("loadgen: ROUTER BATCH BYTE MISMATCH (direct %d bytes, routed %d bytes)", len(d), len(r))
	}

	rs.RouterMetrics = scrapeMetricsList(client, routerAddr, []string{
		"kbrouter_http_requests_total",
		"kbrouter_http_shed_total",
		"kbrouter_replica_requests_total",
		"kbrouter_replica_retries_total",
		"kbrouter_replica_errors_total",
		"kbrouter_replica_healthy",
		"kbrouter_health_transitions_total",
		"kbrouter_scatter_shard_failures_total",
	})
	return rs
}

// traceStageNames are the span names the breakdown reports, in display
// order. Router stages only appear when the phase targets kbrouter; the
// replica-side spans arrive in the same traces via the backhaul header.
var traceStageNames = []string{
	"router.admission", "router.shard", "serving.admission", "serving.cache", "relax.kernel",
}

// runTracePhase issues explicitly-traced /relax and /relax/batch requests
// (minted traceparent, always sampled), scrapes /debug/traces from the
// target, and summarizes per-span-name latency across the traces it finds.
func runTracePhase(client *http.Client, base string, termList []string, k, n int, seed int64) *traceStats {
	ts := &traceStats{Addr: base}
	rng := rand.New(rand.NewSource(seed + 99991))
	minted := map[string]bool{}

	log.Printf("loadgen: trace phase (%d traced GETs + 8 traced batches against %s)", n, base)
	for i := 0; i < n; i++ {
		header, id := trace.NewTraceparent()
		url := fmt.Sprintf("%s/relax?term=%s&k=%d", base, queryEscape(termList[rng.Intn(len(termList))]), k)
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			continue
		}
		req.Header.Set(trace.TraceparentHeader, header)
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			minted[id] = true
		}
	}
	for b := 0; b < 8; b++ {
		queries := make([]batchQuery, 8)
		for i := range queries {
			queries[i] = batchQuery{Term: termList[rng.Intn(len(termList))], K: k}
		}
		payload, err := json.Marshal(map[string]any{"queries": queries})
		if err != nil {
			continue
		}
		header, id := trace.NewTraceparent()
		req, err := http.NewRequest(http.MethodPost, base+"/relax/batch", bytes.NewReader(payload))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(trace.TraceparentHeader, header)
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			minted[id] = true
		}
	}
	ts.Requested = len(minted)

	body := fetchBody(client, base+"/debug/traces?limit=1024")
	var out struct {
		Traces []*trace.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		log.Printf("loadgen: trace phase: /debug/traces scrape failed: %v", err)
		return ts
	}
	durs := map[string][]time.Duration{}
	for _, tr := range out.Traces {
		if !minted[tr.TraceID] {
			continue
		}
		ts.Captured++
		for _, s := range tr.Spans {
			durs[s.Name] = append(durs[s.Name], time.Duration(s.DurMs*float64(time.Millisecond)))
		}
	}
	for _, name := range traceStageNames {
		d := durs[name]
		if len(d) == 0 {
			continue
		}
		slices.Sort(d)
		ts.Stages = append(ts.Stages, traceStage{
			Span: name, Count: len(d),
			P50Ms: ms(quantile(d, 0.50)), P95Ms: ms(quantile(d, 0.95)),
		})
	}
	log.Printf("loadgen: trace phase: %d/%d traces recovered, %d stages", ts.Captured, ts.Requested, len(ts.Stages))
	return ts
}

// runDensity measures what N side-by-side tenants of one bundle cost in
// resident memory. Tenants of a flat bundle map the same file, so the kernel
// shares its pages and the marginal tenant should cost close to nothing.
func runDensity(bundle string, tenants int) (*densityStats, error) {
	if tenants < 2 {
		tenants = 2 // marginal-cost math needs at least a second tenant
	}
	info, err := persist.InspectFile(bundle)
	if err != nil {
		return nil, err
	}
	log.Printf("loadgen: density phase (%s, %d tenants)", info.Format, tenants)
	den := &densityStats{Format: info.Format, BundleBytes: info.SizeBytes, Tenants: tenants}
	runtime.GC()
	base := rssKB()
	snaps := make([]*engine.Snapshot, 0, tenants)
	var afterFirst int64
	start := time.Now()
	for i := 0; i < tenants; i++ {
		snap, err := engine.LoadSnapshot(bundle)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		snaps = append(snaps, snap)
		if i == 0 {
			if s := snap.Stats(); s != nil {
				if r, ok := s["snapshotResidency"].(string); ok {
					den.Residency = r
				}
			}
			runtime.GC()
			afterFirst = rssKB()
		}
	}
	den.LoadTotalMs = float64(time.Since(start).Microseconds()) / 1000
	runtime.GC()
	after := rssKB()
	runtime.KeepAlive(snaps)
	den.RSSTotalDeltaKB = max64(after-base, 0)
	den.RSSPerTenantKB = float64(den.RSSTotalDeltaKB) / float64(tenants)
	den.RSSMarginalPerTenantKB = float64(max64(after-afterFirst, 0)) / float64(tenants-1)
	return den, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// rssKB reads VmRSS from /proc/self/status; 0 where that is unavailable.
func rssKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if v, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
					return v
				}
			}
		}
	}
	return 0
}

func fetchTerms(client *http.Client, addr string, n int) []string {
	resp, err := client.Get(fmt.Sprintf("%s/terms?n=%d", addr, n))
	if err != nil {
		log.Fatalf("loadgen: fetching terms: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("loadgen: /terms = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Terms []string `json:"terms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatalf("loadgen: decoding terms: %v", err)
	}
	return out.Terms
}

// postBatch issues one POST /relax/batch and decodes the positional item
// envelope; status 0 means the transport failed.
func postBatch(client *http.Client, addr string, queries []batchQuery) (time.Duration, int, []batchItemResp) {
	payload, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		return 0, 0, nil
	}
	start := time.Now()
	resp, err := client.Post(addr+"/relax/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, 0, nil
	}
	defer resp.Body.Close()
	var out struct {
		Items []batchItemResp `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return time.Since(start), resp.StatusCode, nil
	}
	return time.Since(start), resp.StatusCode, out.Items
}

func parseSizes(csv string) []int {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			log.Fatalf("loadgen: bad -batch-sizes entry %q", f)
		}
		out = append(out, n)
	}
	return out
}

func timedRelax(client *http.Client, addr, term string, k int) (time.Duration, int) {
	url := fmt.Sprintf("%s/relax?term=%s&k=%d", addr, queryEscape(term), k)
	start := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return 0, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode
}

// timedRelaxNoStore is timedRelax with `Cache-Control: no-store`: the
// serving layer skips its result cache (no read, no write), so the
// measured latency is the uncached computation even on a warm server.
func timedRelaxNoStore(client *http.Client, addr, term string, k int) (time.Duration, int) {
	url := fmt.Sprintf("%s/relax?term=%s&k=%d", addr, queryEscape(term), k)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, 0
	}
	req.Header.Set("Cache-Control", "no-store")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode
}

func fetchBody(client *http.Client, url string) string {
	resp, err := client.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return ""
	}
	return string(body)
}

func queryEscape(s string) string {
	return strings.ReplaceAll(s, " ", "+")
}

// p99Blocks is how many arrival-order blocks the p99 spread uses.
const p99Blocks = 8

func summarize(lat []time.Duration, errs int, elapsed time.Duration) phaseStats {
	st := phaseStats{Requests: len(lat) + errs, Errors: errs}
	if len(lat) == 0 {
		return st
	}
	// Per-block p99 spread, computed before the global sort destroys
	// arrival order. Skipped when blocks would be too small for a tail
	// quantile to be anything but the block maximum.
	if bs := len(lat) / p99Blocks; bs >= 25 {
		var lo, hi float64
		for b := 0; b < p99Blocks; b++ {
			blk := append([]time.Duration(nil), lat[b*bs:(b+1)*bs]...)
			slices.Sort(blk)
			v := ms(quantile(blk, 0.99))
			if b == 0 || v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		st.P99LowMs, st.P99HighMs = lo, hi
	}
	slices.Sort(lat)
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	st.P50Ms = ms(quantile(lat, 0.50))
	st.P95Ms = ms(quantile(lat, 0.95))
	st.P99Ms = ms(quantile(lat, 0.99))
	st.MeanMs = ms(sum / time.Duration(len(lat)))
	if elapsed > 0 {
		st.Throughput = float64(len(lat)) / elapsed.Seconds()
	}
	return st
}

func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scrapeMetrics pulls the serving-layer counters loadgen reports on.
func scrapeMetrics(client *http.Client, addr string) map[string]float64 {
	return scrapeMetricsList(client, addr, []string{
		"medrelax_relax_cache_hits_total",
		"medrelax_relax_cache_misses_total",
		"medrelax_relax_cache_collapsed_total",
		"medrelax_relax_cache_bypass_total",
		"medrelax_relax_live_path_total",
		"medrelax_relax_materialized_hit_total",
		"medrelax_relax_index_path_total",
		"medrelax_http_shed_total",
		"medrelax_http_inflight",
		"medrelax_bundle_generation",
	})
}

// scrapeMetricsList pulls the named families from a Prometheus text
// endpoint, summing series that share a name+label string.
func scrapeMetricsList(client *http.Client, addr string, wanted []string) map[string]float64 {
	body := fetchBody(client, addr+"/metrics")
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		name := fields[0]
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		for _, w := range wanted {
			if base == w {
				v, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					out[name] = out[name] + v
				}
			}
		}
	}
	return out
}

func writeJSON(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeMarkdown(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Serving benchmark (cmd/loadgen)\n\n")
	fmt.Fprintf(&b, "Generated %s against %s. %d distinct terms, zipf s=%.2f, k=%d, %d warm workers for %.0fs.\n\n",
		rep.GeneratededAt, rep.Addr, rep.Terms, rep.ZipfS, rep.K, rep.Concurrency, rep.DurationSec)
	fmt.Fprintf(&b, "## /relax latency, cold vs warm cache\n\n")
	fmt.Fprintf(&b, "| phase | requests | errors | p50 (ms) | p95 (ms) | p99 (ms) | mean (ms) | req/s |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|---:|\n")
	fmt.Fprintf(&b, "| cold (sequential, empty cache) | %d | %d | %.3f | %.3f | %.3f | %.3f | %.0f |\n",
		rep.Cold.Requests, rep.Cold.Errors, rep.Cold.P50Ms, rep.Cold.P95Ms, rep.Cold.P99Ms, rep.Cold.MeanMs, rep.Cold.Throughput)
	fmt.Fprintf(&b, "| warm (zipfian, concurrent) | %d | %d | %.3f | %.3f | %.3f | %.3f | %.0f |\n\n",
		rep.Warm.Requests, rep.Warm.Errors, rep.Warm.P50Ms, rep.Warm.P95Ms, rep.Warm.P99Ms, rep.Warm.MeanMs, rep.Warm.Throughput)
	fmt.Fprintf(&b, "**Warm-cache p95 speedup: %.1fx.** Cached responses byte-identical to uncached: **%v**.\n\n",
		rep.WarmSpeedupP95, rep.ByteIdentical)
	if rep.Cold.P99HighMs > 0 {
		fmt.Fprintf(&b, "Cold p99 spread over %d arrival-order blocks: %.3f–%.3f ms.\n\n",
			p99Blocks, rep.Cold.P99LowMs, rep.Cold.P99HighMs)
	}
	if rep.ColdSweep.Requests > 0 {
		fmt.Fprintf(&b, "## Uncached path on a warm server (coldsweep, `Cache-Control: no-store`)\n\n")
		fmt.Fprintf(&b, "| requests | errors | p50 (ms) | p95 (ms) | p99 (ms) | p99 range (ms) | mean (ms) | req/s |\n")
		fmt.Fprintf(&b, "|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		fmt.Fprintf(&b, "| %d | %d | %.3f | %.3f | %.3f | %.3f–%.3f | %.3f | %.0f |\n\n",
			rep.ColdSweep.Requests, rep.ColdSweep.Errors, rep.ColdSweep.P50Ms, rep.ColdSweep.P95Ms,
			rep.ColdSweep.P99Ms, rep.ColdSweep.P99LowMs, rep.ColdSweep.P99HighMs,
			rep.ColdSweep.MeanMs, rep.ColdSweep.Throughput)
		fmt.Fprintf(&b, "Every coldsweep request bypasses the result cache (no read, no write), so this measures the miss path — the offline top-k materialization and the posting-list candidate index, falling back to live traversal.\n\n")
		if rep.UncachedSpeedupP50 > 0 {
			fmt.Fprintf(&b, "**Uncached p50 %.3f ms vs %.2f ms recorded baseline: %.1fx faster.**\n\n",
				rep.ColdSweep.P50Ms, rep.UncachedBaselineP50Ms, rep.UncachedSpeedupP50)
		}
	}
	if rep.Cold.Retries > 0 || rep.Warm.Retries > 0 {
		fmt.Fprintf(&b, "Client retries (capped exponential backoff + jitter, honoring `Retry-After`): %d cold, %d warm.\n\n",
			rep.Cold.Retries, rep.Warm.Retries)
	}
	if rep.Burst.Requests > 0 {
		fmt.Fprintf(&b, "## Shed burst (%d workers, cache-busting random k)\n\n", rep.BurstWorkers)
		fmt.Fprintf(&b, "| requests | 200 OK | 429 shed | other |\n|---:|---:|---:|---:|\n")
		fmt.Fprintf(&b, "| %d | %d | %d | %d |\n\n", rep.Burst.Requests, rep.Burst.OK, rep.Burst.Shed, rep.Burst.Errors)
		fmt.Fprintf(&b, "Past the concurrency limit the server sheds with `429 + Retry-After` instead of queueing; no request waits in an unbounded queue.\n\n")
	}
	if len(rep.Batch) > 0 {
		fmt.Fprintf(&b, "## Batch relaxation (POST /relax/batch, cache-busting random k)\n\n")
		fmt.Fprintf(&b, "| batch size | batches | errors | p50 (ms) | p95 (ms) | items/s |\n|---:|---:|---:|---:|---:|---:|\n")
		for _, bs := range rep.Batch {
			fmt.Fprintf(&b, "| %d | %d | %d | %.3f | %.3f | %.0f |\n",
				bs.Size, bs.Batches, bs.Errors, bs.P50Ms, bs.P95Ms, bs.ItemsPerSec)
		}
		fmt.Fprintf(&b, "\n")
		if rep.BatchItemSpeedup > 0 {
			fmt.Fprintf(&b, "**Item throughput of the largest batch size vs one GET /relax per item: %.1fx** (loopback: per-item relaxation dominates; over a real network the batch saves one round trip per item). ", rep.BatchItemSpeedup)
		}
		fmt.Fprintf(&b, "Batch item bodies byte-identical to sequential `GET /relax`: **%v**.\n\n", rep.BatchByteIdentical)
	}
	if rep.Explain != nil {
		ex := rep.Explain
		fmt.Fprintf(&b, "## Explain mode (GET /relax?explain=true, sequential sweeps over all terms)\n\n")
		fmt.Fprintf(&b, "| pass | requests | errors | p50 (ms) | p95 (ms) | p99 (ms) | req/s |\n")
		fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|\n")
		for _, row := range []struct {
			name string
			st   phaseStats
		}{
			{"plain, warm cache", ex.WarmPlain},
			{"explain, first pass (variant misses)", ex.FirstPassOn},
			{"explain, warm (variant hits)", ex.WarmOn},
			{"plain, uncached (`no-store`)", ex.UncachedPlain},
			{"explain, uncached (`no-store`)", ex.UncachedOn},
		} {
			fmt.Fprintf(&b, "| %s | %d | %d | %.3f | %.3f | %.3f | %.0f |\n",
				row.name, row.st.Requests, row.st.Errors, row.st.P50Ms, row.st.P95Ms, row.st.P99Ms, row.st.Throughput)
		}
		fmt.Fprintf(&b, "\n**Explain p95 overhead: %.3f ms warm, %.3f ms uncached.** ",
			ex.WarmOverheadP95Ms, ex.UncachedOverheadP95Ms)
		fmt.Fprintf(&b, "Explain responses cache under their own key; plain responses byte-identical after explain traffic: **%v** (explain fields present in explain responses: %v).\n\n",
			ex.PlainUnchanged, ex.ExplainFieldsSeen)
	}
	if len(rep.Tenants) > 0 {
		fmt.Fprintf(&b, "## Per-tenant phase (routed via /t/{name}/)\n\n")
		fmt.Fprintf(&b, "| tenant | requests | errors | p50 (ms) | p95 (ms) | req/s |\n|---|---:|---:|---:|---:|---:|\n")
		names := make([]string, 0, len(rep.Tenants))
		for name := range rep.Tenants {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			st := rep.Tenants[name]
			fmt.Fprintf(&b, "| %s | %d | %d | %.3f | %.3f | %.0f |\n",
				name, st.Requests, st.Errors, st.P50Ms, st.P95Ms, st.Throughput)
		}
		fmt.Fprintf(&b, "\nEach tenant has its own cache partition, admission gate, and tenant-labelled metric series; the table shows both warming independently in one process.\n\n")
	}
	if rep.Router != nil {
		rt := rep.Router
		fmt.Fprintf(&b, "## Router phase (kbrouter at %s, same zipfian mix back-to-back)\n\n", rt.Addr)
		fmt.Fprintf(&b, "| path | requests | errors | retries | p50 (ms) | p95 (ms) | p99 (ms) | req/s |\n")
		fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|---:|\n")
		fmt.Fprintf(&b, "| direct (one replica) | %d | %d | %d | %.3f | %.3f | %.3f | %.0f |\n",
			rt.Direct.Requests, rt.Direct.Errors, rt.Direct.Retries, rt.Direct.P50Ms, rt.Direct.P95Ms, rt.Direct.P99Ms, rt.Direct.Throughput)
		fmt.Fprintf(&b, "| via kbrouter | %d | %d | %d | %.3f | %.3f | %.3f | %.0f |\n\n",
			rt.ViaRouter.Requests, rt.ViaRouter.Errors, rt.ViaRouter.Retries, rt.ViaRouter.P50Ms, rt.ViaRouter.P95Ms, rt.ViaRouter.P99Ms, rt.ViaRouter.Throughput)
		if rt.ThroughputRatio > 0 {
			fmt.Fprintf(&b, "**Routed throughput is %.2fx direct** (p95 overhead %.3f ms/request for consistent-hash placement, health tracking, and the extra hop). ",
				rt.ThroughputRatio, rt.P95OverheadMs)
		}
		fmt.Fprintf(&b, "Scatter-gather batch bytes identical to a single replica: **%v**.\n\n", rt.BatchByteIdentical)
		if len(rt.RouterMetrics) > 0 {
			fmt.Fprintf(&b, "### Router counters (kbrouter /metrics)\n\n| series | value |\n|---|---:|\n")
			keys := make([]string, 0, len(rt.RouterMetrics))
			for k := range rt.RouterMetrics {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "| `%s` | %.0f |\n", k, rt.RouterMetrics[k])
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	if rep.Trace != nil {
		tr := rep.Trace
		fmt.Fprintf(&b, "## Trace phase (explicit traceparent headers, scraped from %s/debug/traces)\n\n", tr.Addr)
		fmt.Fprintf(&b, "%d traced requests issued, %d traces recovered from the ring buffer.\n\n", tr.Requested, tr.Captured)
		if len(tr.Stages) > 0 {
			fmt.Fprintf(&b, "| stage (span) | samples | p50 (ms) | p95 (ms) |\n|---|---:|---:|---:|\n")
			for _, st := range tr.Stages {
				fmt.Fprintf(&b, "| `%s` | %d | %.3f | %.3f |\n", st.Span, st.Count, st.P50Ms, st.P95Ms)
			}
			fmt.Fprintf(&b, "\nRouter stages appear only when the phase targets kbrouter; replica-side spans (admission, cache probe, relax kernel) ride back to the router inside the span backhaul header and land in the same trace.\n\n")
		}
	}
	if rep.Density != nil {
		d := rep.Density
		fmt.Fprintf(&b, "## Multi-tenant density (in-process, %d tenants)\n\n", d.Tenants)
		fmt.Fprintf(&b, "| format | residency | bundle bytes | load total (ms) | RSS delta (KB) | RSS/tenant (KB) | marginal RSS/tenant (KB) |\n")
		fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---:|\n")
		fmt.Fprintf(&b, "| %s | %s | %d | %.1f | %d | %.0f | %.0f |\n\n",
			d.Format, d.Residency, d.BundleBytes, d.LoadTotalMs,
			d.RSSTotalDeltaKB, d.RSSPerTenantKB, d.RSSMarginalPerTenantKB)
		fmt.Fprintf(&b, "Tenants of a flat bundle map the same file, so the kernel shares its pages and adding a tenant costs little beyond bookkeeping — multi-tenant RSS stays sublinear in tenant count.\n\n")
	}
	if len(rep.ServerMetrics) > 0 {
		fmt.Fprintf(&b, "## Server-side counters (/metrics)\n\n| series | value |\n|---|---:|\n")
		keys := make([]string, 0, len(rep.ServerMetrics))
		for k := range rep.ServerMetrics {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "| `%s` | %.0f |\n", k, rep.ServerMetrics[k])
		}
		fmt.Fprintf(&b, "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
