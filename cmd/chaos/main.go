// Command chaos is the crash-safety harness: it boots the same serving
// stack kbserver runs (engine.LoadSnapshot -> serving.Engine -> server API),
// captures golden /relax responses, then drives concurrent retrying
// traffic while injecting backend faults, corrupting the bundle on disk
// mid-reload, and tearing writes — and asserts the invariants the fault
// layer promises:
//
//   - zero panics anywhere in the handler stack
//   - no /relax response is ever a 500 (injected faults must map to a
//     503 with Retry-After, timeouts to 504 — never an opaque error)
//   - every 200 body — a GET's, or a batch item's, which lacks only the
//     GET body's trailing newline — is byte-identical to the golden
//     capture (no torn, mixed-generation, or partially-relaxed answer
//     escapes)
//   - a corrupt bundle never becomes the serving generation: the reload
//     fails, medrelax_reload_failures_total rises, the generation gauge
//     does not
//   - a torn SaveFileAtomic leaves the previous bundle intact and no
//     temp litter
//   - once faults clear, every term again serves byte-identical results
//
// The run is deterministic for a fixed -seed. A JSON report is written
// to -out; the exit status is non-zero iff any invariant was violated.
//
// Usage:
//
//	chaos -seed 42 -phase 1500ms -out chaos_report.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/engine"
	"medrelax/internal/fault"
	"medrelax/internal/medkb"
	"medrelax/internal/persist"
	"medrelax/internal/retry"
	"medrelax/internal/server"
	"medrelax/internal/serving"
	"medrelax/internal/synthkb"
)

func main() {
	var (
		seed    = flag.Int64("seed", 42, "seed for world generation, fault schedules, and traffic")
		phase   = flag.Duration("phase", 1500*time.Millisecond, "duration of each traffic phase")
		workers = flag.Int("workers", 6, "concurrent traffic workers per phase")
		k       = flag.Int("k", 5, "results per /relax request")
		out     = flag.String("out", "chaos_report.json", "JSON run report path")
		dir     = flag.String("dir", "", "working directory for the bundle (default: a temp dir)")
		rtr     = flag.Bool("router", false, "run the distributed-tier drill instead: 3 replicas + kbrouter, kill/restart one replica under traffic")
	)
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if *rtr {
		if n := runRouterDrill(*seed, *phase, *workers, *k, *out); n > 0 {
			os.Exit(1)
		}
		return
	}

	h, err := newHarness(*seed, *phase, *workers, *k, *dir)
	if err != nil {
		log.Fatalf("chaos: setup: %v", err)
	}
	defer h.cleanup()

	h.run()

	if err := h.writeReport(*out); err != nil {
		log.Fatalf("chaos: writing report: %v", err)
	}
	if n := len(h.report.Violations); n > 0 {
		log.Printf("chaos: FAIL — %d invariant violation(s):", n)
		for _, v := range h.report.Violations {
			log.Printf("chaos:   - %s", v)
		}
		os.Exit(1)
	}
	log.Printf("chaos: PASS — %d requests, %d retries, %d reload failures (all expected), 0 panics, 0 mismatches",
		h.report.Requests, h.report.Retries, h.report.ReloadsFailed)
}

// phaseReport records one traffic phase's outcome for the run report.
// ByStatus counts answers: a GET is one, a batch answered 200 one per item,
// and any other batch one with its HTTP status.
type phaseReport struct {
	Name       string                     `json:"name"`
	Faults     string                     `json:"faults,omitempty"`
	Requests   int64                      `json:"requests"`
	BatchItems int64                      `json:"batchItems,omitempty"`
	Retries    int64                      `json:"retries"`
	ByStatus   map[string]int             `json:"byStatus"`
	Sites      map[string]fault.SiteStats `json:"sites,omitempty"`
}

// report is the JSON artifact summarizing the whole run.
type report struct {
	Seed          int64         `json:"seed"`
	Terms         int           `json:"terms"`
	Phases        []phaseReport `json:"phases"`
	Requests      int64         `json:"requests"`
	Retries       int64         `json:"retries"`
	ReloadsOK     int           `json:"reloadsOk"`
	ReloadsFailed int           `json:"reloadsFailed"`
	Generation    int           `json:"generation"`
	// RelaxPaths is the final generation's kernel request count per serve
	// path: the world is indexed, so "indexed" must not be zero.
	RelaxPaths map[string]uint64 `json:"relaxPaths"`
	Panics     int64             `json:"panics"`
	Mismatches int64             `json:"mismatches"`
	Violations []string          `json:"violations"`
}

type harness struct {
	seed    int64
	phase   time.Duration
	workers int
	k       int

	dir       string
	ownDir    bool // we created dir, remove it on cleanup
	bundle    string
	goodBytes []byte
	flipAt    int // offset of the byte the storm's bitflip case flips

	engine *serving.Engine
	srv    *http.Server
	lis    net.Listener
	base   string
	client *http.Client
	panics atomic.Int64

	terms  []string
	golden map[string][]byte
	// One explain=true GET and one POST /relax/batch, captured with the
	// per-term bodies and replayed by the final checks.
	batchBody, explainGolden, batchGolden []byte

	mu          sync.Mutex
	report      report
	expectedGen int
}

func (h *harness) violatef(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	log.Printf("chaos: VIOLATION: %s", msg)
	h.mu.Lock()
	h.report.Violations = append(h.report.Violations, msg)
	h.mu.Unlock()
}

// newHarness builds a small deterministic world, publishes it as the flat
// bundle production serves via the crash-safe writer, and boots the
// production serving stack on a loopback listener: every reload, good or
// refused, goes through the mapped reader.
func newHarness(seed int64, phase time.Duration, workers, k int, dir string) (*harness, error) {
	h := &harness{
		seed:        seed,
		phase:       phase,
		workers:     workers,
		k:           k,
		dir:         dir,
		golden:      map[string][]byte{},
		expectedGen: 1,
	}
	h.report.Seed = seed
	if h.dir == "" {
		d, err := os.MkdirTemp("", "chaos-*")
		if err != nil {
			return nil, err
		}
		h.dir, h.ownDir = d, true
	}
	h.bundle = filepath.Join(h.dir, "bundle.flat")

	ing, err := buildIngestion(seed)
	if err != nil {
		return nil, err
	}
	if err := persist.SaveFileAtomic(h.bundle, ing, persist.FormatFlat); err != nil {
		return nil, err
	}
	if h.goodBytes, err = os.ReadFile(h.bundle); err != nil {
		return nil, err
	}
	// The storm's bit flip lands in the middle of the largest section: a
	// byte of the alignment padding between sections is under no checksum.
	info, err := persist.InspectFile(h.bundle)
	if err != nil {
		return nil, err
	}
	var largest persist.SectionInfo
	for _, s := range info.Sections {
		if s.Length > largest.Length {
			largest = s
		}
	}
	h.flipAt = int(largest.Offset + largest.Length/2)
	log.Printf("chaos: bundle published: %s (%d bytes)", h.bundle, len(h.goodBytes))

	backend, err := engine.LoadSnapshot(h.bundle)
	if err != nil {
		return nil, err
	}
	opts := serving.DefaultOptions()
	// A tiny cache with a short TTL so traffic actually reaches the
	// backend fault site instead of being absorbed by cache hits, plus a
	// stale window so the degraded path gets exercised too.
	opts.CacheCapacity = 8
	opts.CacheTTL = 75 * time.Millisecond
	opts.CacheStaleWindow = 200 * time.Millisecond
	opts.MaxConcurrent = 64
	opts.RelaxTimeout = 2 * time.Second
	opts.SlowQuery = 0
	bundle := h.bundle
	opts.Loader = func() (server.Backend, error) {
		snap, err := engine.LoadSnapshot(bundle)
		if err != nil {
			return nil, err
		}
		return snap, nil
	}
	h.engine = serving.NewEngine(backend, opts)

	api := server.New(h.engine)
	handler := h.recoverPanics(h.engine.Handler(api.Handler()))
	h.lis, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.srv = &http.Server{Handler: handler}
	go h.srv.Serve(h.lis)
	h.base = "http://" + h.lis.Addr().String()
	h.client = &http.Client{Timeout: 10 * time.Second}
	log.Printf("chaos: serving stack up at %s", h.base)
	return h, nil
}

// buildIngestion generates a compact synthetic world and ingests it with
// the exact-match mapper — no embedding training, so the harness boots in
// about a second and stays CI-friendly — and with a candidate index out to
// the serving ceiling (engine.Config's default MaxRadius), so every drill's
// requests score views of the mapping a reload swaps under them and the
// largest section, the one the storm flips a bit in, is the index's hits.
func buildIngestion(seed int64) (*core.Ingestion, error) {
	world, err := synthkb.Generate(synthkb.Config{Seed: seed, ConditionsPerPair: 2})
	if err != nil {
		return nil, err
	}
	med, err := medkb.Generate(world, medkb.Config{Seed: seed + 1, Drugs: 25})
	if err != nil {
		return nil, err
	}
	corp := medkb.BuildCorpus(world, med, medkb.CorpusConfig{Seed: seed + 2})
	return core.Ingest(med.Ontology, med.Store, world.Graph, corp, exactMapper{world.Graph}, core.IngestOptions{
		CandidateIndex: core.CandidateIndexOptions{Enabled: true, Radius: 8},
	})
}

// indexedPaths reads the kernel's per-path request counts off a backend's
// stats; a world built by buildIngestion that served nothing from its index
// is a violation.
func indexedPaths(stats map[string]any, violatef func(string, ...any)) map[string]uint64 {
	paths, _ := stats["relaxPaths"].(map[string]uint64)
	if paths["indexed"] == 0 {
		violatef("final: the candidate index served no request of the last generation: relaxPaths %v", paths)
	}
	return paths
}

type exactMapper struct{ g *eks.Graph }

func (m exactMapper) Name() string { return "EXACT" }
func (m exactMapper) Map(name string) (eks.ConceptID, bool) {
	ids := m.g.LookupName(name)
	if len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}

// recoverPanics converts a handler panic into a 500 and counts it; the
// count must end the run at zero.
func (h *harness) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				h.panics.Add(1)
				log.Printf("chaos: PANIC serving %s: %v", r.URL.Path, v)
				http.Error(w, "panic", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (h *harness) cleanup() {
	h.srv.Close()
	fault.SetDefault(nil)
	if h.ownDir {
		os.RemoveAll(h.dir)
	}
}

func (h *harness) run() {
	if err := h.captureGolden(); err != nil {
		h.violatef("golden capture: %v", err)
		return
	}

	// Phase 1: transient backend errors under concurrent reload chaos.
	// Clients retry on 503; corrupt bundles are pushed and reloaded and
	// must be rejected while the live generation keeps answering.
	errSpec := fmt.Sprintf("backend.relax:error,rate=0.15,seed=%d,msg=chaos backend fault", h.seed)
	stop := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(1)
	go func() { defer storm.Done(); h.reloadStorm(stop) }()
	h.trafficPhase("backend-errors", errSpec)
	close(stop)
	storm.Wait()

	// Phase 2: injected latency. Slower answers are fine; wrong or
	// internal-error answers are not.
	latSpec := fmt.Sprintf("backend.relax:latency,delay=20ms,rate=0.5,seed=%d", h.seed+1)
	h.trafficPhase("backend-latency", latSpec)

	// Phase 3: torn writes. Publishing a new bundle through a torn
	// writer — in either on-disk encoding — must fail without disturbing
	// the live file or leaving temp litter, and the live file must still
	// load.
	h.tornWritePhase()

	// Phase 4: faults cleared — every term must serve byte-identical
	// golden results again, and the metrics must account for exactly the
	// chaos we caused.
	fault.SetDefault(nil)
	h.trafficPhase("recovery", "")
	h.finalChecks()
}

// captureGolden records the byte-exact /relax response for every term
// before any fault is armed.
func (h *harness) captureGolden() error {
	body, status, err := get(h.client, h.base+"/terms?n=25")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /terms: status %d, err %v", status, err)
	}
	var tr struct {
		Terms []string `json:"terms"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		return err
	}
	if len(tr.Terms) == 0 {
		return fmt.Errorf("no relaxable terms in bundle")
	}
	h.terms = tr.Terms
	h.report.Terms = len(tr.Terms)
	for _, term := range h.terms {
		b, status, err := get(h.client, h.base+relaxPath(term, h.k))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("golden GET /relax?term=%q: status %d, err %v", term, status, err)
		}
		h.golden[term] = b
	}
	explain, status, err := get(h.client, h.base+h.explainURL())
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("golden GET %s: status %d, err %v", h.explainURL(), status, err)
	}
	h.explainGolden = explain
	// Every term, an unknown one (a 404 item) and an out-of-range k (a 400).
	queries := []server.Request{{Term: "no such term xyzzy", K: h.k}, {Term: h.terms[0], K: 5000}}
	for _, term := range h.terms {
		queries = append(queries, server.Request{Term: term, K: h.k})
	}
	if h.batchBody, err = json.Marshal(server.BatchRequest{Queries: queries}); err != nil {
		return err
	}
	if h.batchGolden, status, err = post(h.client, h.base+"/relax/batch", h.batchBody); err != nil || status != http.StatusOK {
		return fmt.Errorf("golden POST /relax/batch: status %d, err %v", status, err)
	}
	// The captures are what every later answer is compared against, so each
	// is first held to encoding/json, the encoder's oracle.
	for _, term := range h.terms {
		if err := oracleCheck(h.golden[term], false); err != nil {
			h.violatef("golden GET /relax?term=%q: %v", term, err)
		}
	}
	if err := oracleCheck(h.explainGolden, false); err != nil {
		h.violatef("golden GET %s: %v", h.explainURL(), err)
	}
	if err := oracleCheck(h.batchGolden, true); err != nil {
		h.violatef("golden POST /relax/batch: %v", err)
	}
	log.Printf("chaos: golden capture: %d terms + explain GET + %d-item batch, held to encoding/json", len(h.terms), len(queries))
	return nil
}

// explainURL is the golden explain=true request: the first term.
func (h *harness) explainURL() string { return relaxPath(h.terms[0], h.k) + "&explain=true" }

// relaxPath is the GET /relax path of one golden query.
func relaxPath(term string, k int) string {
	return "/relax?term=" + strings.ReplaceAll(term, " ", "+") + "&k=" + strconv.Itoa(k)
}

// batchPayload is the POST /relax/batch body asking each term at k.
func batchPayload(terms []string, k int) ([]byte, error) {
	queries := make([]server.Request, len(terms))
	for i, term := range terms {
		queries[i] = server.Request{Term: term, K: k}
	}
	return json.Marshal(server.BatchRequest{Queries: queries})
}

// send issues one request — a JSON body for a POST — and reads the whole
// response.
func send(c *http.Client, method, url string, body []byte) ([]byte, int, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, resp.Header, err
}

func get(c *http.Client, url string) ([]byte, int, error) {
	b, status, _, err := send(c, http.MethodGet, url, nil)
	return b, status, err
}

func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	b, status, _, err := send(c, http.MethodPost, url, body)
	return b, status, err
}

// relaxRetry sends one request with capped exponential backoff on 429/503,
// honoring Retry-After the way a well-behaved client does (the shared
// internal/retry policy). Returns the final body, status, and total
// attempts.
func relaxRetry(c *http.Client, method, url string, body []byte, rng *rand.Rand) ([]byte, int, int, error) {
	pol := retry.Policy{MaxRetries: 3, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	for attempt := 0; ; attempt++ {
		b, status, header, err := send(c, method, url, body)
		retryable := err != nil || retry.RetryableStatus(status)
		if !retryable || attempt == pol.MaxRetries {
			return b, status, attempt + 1, err
		}
		// Cap the honored hint so a 1s server hint doesn't stall the whole
		// phase; production clients would sleep it out.
		hinted := min(retry.After(header), 50*time.Millisecond)
		time.Sleep(pol.Wait(attempt, hinted, rng))
	}
}

// reply is one query's answer: a GET's, or one batch item's.
type reply struct {
	status int
	body   []byte
}

// ask sends terms as one GET (one term) or one POST /relax/batch, with
// relaxRetry, and returns each term's reply; a batch not answered 200 is one
// reply with its HTTP status.
func (h *harness) ask(terms []string, rng *rand.Rand) ([]reply, int, error) {
	if len(terms) == 1 {
		body, status, attempts, err := relaxRetry(h.client, http.MethodGet, h.base+relaxPath(terms[0], h.k), nil, rng)
		return []reply{{status, body}}, attempts, err
	}
	payload, err := batchPayload(terms, h.k)
	if err != nil {
		return nil, 0, err
	}
	body, status, attempts, err := relaxRetry(h.client, http.MethodPost, h.base+"/relax/batch", payload, rng)
	if err != nil || status != http.StatusOK {
		return []reply{{status, body}}, attempts, err
	}
	var resp struct {
		Items []server.BatchItemResponse `json:"items"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Items) != len(terms) {
		return nil, attempts, fmt.Errorf("batch of %d answered %d items (%v)", len(terms), len(resp.Items), err)
	}
	out := make([]reply, len(terms))
	for i, it := range resp.Items {
		out[i] = reply{it.Status, it.Body}
	}
	return out, attempts, nil
}

// trafficPhase arms the given fault spec (empty = none) and hammers the
// relax endpoints from h.workers goroutines for h.phase, with retry.Policy
// retries on 429/503: every fourth request is a POST /relax/batch of three
// golden terms, the rest GET /relax. Every 200 — a GET body, or a batch item
// with the GET body's trailing newline dropped — must match golden
// byte-for-byte; a 500 anywhere is a violation.
func (h *harness) trafficPhase(name, spec string) {
	var reg *fault.Registry
	if spec != "" {
		var err error
		if reg, err = fault.Parse(spec); err != nil {
			h.violatef("phase %s: bad fault spec: %v", name, err)
			return
		}
	}
	fault.SetDefault(reg)
	log.Printf("chaos: phase %s: faults=%q", name, spec)

	var (
		requests, batchItems, retries atomic.Int64
		byStatus                      sync.Map // int -> *atomic.Int64
		wg                            sync.WaitGroup
	)
	count := func(status int) {
		c, _ := byStatus.LoadOrStore(status, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
	}
	deadline := time.Now().Add(h.phase)
	for w := 0; w < h.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(h.seed + int64(w)*1009))
			for i := 1; time.Now().Before(deadline); i++ {
				terms := []string{h.terms[rng.Intn(len(h.terms))]}
				if i%4 == 0 {
					terms = append(terms, h.terms[rng.Intn(len(h.terms))], h.terms[rng.Intn(len(h.terms))])
					batchItems.Add(int64(len(terms)))
				}
				replies, attempts, err := h.ask(terms, rng)
				requests.Add(1)
				retries.Add(int64(attempts - 1))
				if err != nil {
					h.violatef("phase %s: transport error for %q: %v", name, terms, err)
					continue
				}
				for j, r := range replies {
					count(r.status)
					switch r.status {
					case http.StatusOK:
						want := h.golden[terms[j]]
						if len(terms) > 1 {
							want = bytes.TrimSuffix(want, []byte("\n"))
						}
						if !bytes.Equal(r.body, want) {
							h.mu.Lock()
							h.report.Mismatches++
							h.mu.Unlock()
							h.violatef("phase %s: response for %q differs from golden", name, terms[j])
						}
					case http.StatusTooManyRequests, http.StatusServiceUnavailable,
						http.StatusGatewayTimeout:
						// Tolerated: retries exhausted under injected load.
					default:
						h.violatef("phase %s: unexpected status %d for %q", name, r.status, terms[j])
					}
				}
			}
		}(w)
	}
	wg.Wait()

	pr := phaseReport{Name: name, Faults: spec, Requests: requests.Load(), BatchItems: batchItems.Load(),
		Retries: retries.Load(), ByStatus: map[string]int{}, Sites: reg.Snapshot()}
	byStatus.Range(func(k, v any) bool {
		pr.ByStatus[strconv.Itoa(k.(int))] = int(v.(*atomic.Int64).Load())
		return true
	})
	h.mu.Lock()
	h.report.Phases = append(h.report.Phases, pr)
	h.report.Requests += pr.Requests
	h.report.Retries += pr.Retries
	h.mu.Unlock()
	log.Printf("chaos: phase %s: %d requests (%d batch items), %d retries, statuses %v", name, pr.Requests, pr.BatchItems, pr.Retries, pr.ByStatus)
}

// reloadStorm alternates corrupt and good bundle publishes, poking
// /admin/reload after each. Corrupt publishes must be rejected (reload
// fails, generation unchanged); good publishes must swap generations.
func (h *harness) reloadStorm(stop <-chan struct{}) {
	corruptions := []struct {
		name string
		data func() []byte
	}{
		{"truncated", func() []byte { return h.goodBytes[:len(h.goodBytes)*3/5] }},
		{"bitflip", func() []byte {
			b := append([]byte(nil), h.goodBytes...)
			b[h.flipAt] ^= 0x40
			return b
		}},
		{"empty", func() []byte { return nil }},
		{"garbage", func() []byte { return []byte("this is not a bundle\n") }},
	}
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			// Always leave the good bundle on disk for later phases.
			if err := h.publish(h.goodBytes); err != nil {
				h.violatef("reload storm: restoring good bundle: %v", err)
			}
			return
		case <-tick.C:
		}
		c := corruptions[i%len(corruptions)]
		if err := h.publish(c.data()); err != nil {
			h.violatef("reload storm: publishing %s bundle: %v", c.name, err)
			continue
		}
		if status, gen := h.adminReload(); status == http.StatusOK {
			h.violatef("reload storm: %s bundle was accepted (generation %d)", c.name, gen)
		} else {
			h.mu.Lock()
			h.report.ReloadsFailed++
			h.mu.Unlock()
		}
		if err := h.publish(h.goodBytes); err != nil {
			h.violatef("reload storm: restoring good bundle: %v", err)
			continue
		}
		if status, gen := h.adminReload(); status != http.StatusOK {
			h.violatef("reload storm: good bundle rejected with status %d", status)
		} else {
			h.mu.Lock()
			h.expectedGen++
			want := h.expectedGen
			h.report.ReloadsOK++
			h.mu.Unlock()
			if gen != want {
				h.violatef("reload storm: generation %d after good reload, want %d", gen, want)
			}
		}
	}
}

// publish atomically replaces the bundle file (temp + rename), simulating
// an operator pushing a new bundle next to a live server.
func (h *harness) publish(data []byte) error {
	tmp := h.bundle + ".push"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, h.bundle)
}

// adminReload POSTs /admin/reload and returns the status plus the
// reported generation (0 when the reload failed).
func (h *harness) adminReload() (int, int) {
	resp, err := h.client.Post(h.base+"/admin/reload", "application/json", nil)
	if err != nil {
		h.violatef("POST /admin/reload: %v", err)
		return 0, 0
	}
	defer resp.Body.Close()
	var body struct {
		Generation int `json:"generation"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Generation
}

// tornWritePhase arms a torn-write fault and attempts to publish a fresh
// bundle through persist.SaveFileAtomic: the save must fail, the live
// bundle must be untouched and still loadable, and no temp file may
// survive.
func (h *harness) tornWritePhase() {
	ing, err := buildIngestion(h.seed)
	if err != nil {
		h.violatef("torn-write phase: rebuilding ingestion: %v", err)
		return
	}
	// Both on-disk encodings go through the same crash-safe writer; a torn
	// write must leave the live bundle, which the server has mapped,
	// untouched either way.
	formats := []struct {
		name   string
		format persist.Format
	}{
		{"json", persist.FormatJSON},
		{"flat", persist.FormatFlat},
	}
	for i, f := range formats {
		name := "torn-write-" + f.name
		spec := fmt.Sprintf("persist.write:torn,bytes=%d,count=1,seed=%d", len(h.goodBytes)/3, h.seed+2+int64(i))
		reg, err := fault.Parse(spec)
		if err != nil {
			h.violatef("%s phase: bad spec: %v", name, err)
			return
		}
		fault.SetDefault(reg)
		log.Printf("chaos: phase %s: faults=%q", name, spec)

		if err := persist.SaveFileAtomic(h.bundle, ing, f.format); err == nil {
			h.violatef("%s phase: SaveFileAtomic succeeded through a torn writer", name)
		}
		fault.SetDefault(nil)

		if got, err := os.ReadFile(h.bundle); err != nil {
			h.violatef("%s phase: live bundle unreadable after torn save: %v", name, err)
		} else if string(got) != string(h.goodBytes) {
			h.violatef("%s phase: live bundle changed by a failed save", name)
		}
		if litter, _ := filepath.Glob(filepath.Join(h.dir, ".bundle-*.tmp")); len(litter) > 0 {
			h.violatef("%s phase: temp litter left behind: %v", name, litter)
		}
		if status, _ := h.adminReload(); status != http.StatusOK {
			h.violatef("%s phase: reload of untouched bundle failed with status %d", name, status)
		} else {
			h.mu.Lock()
			h.expectedGen++
			h.report.ReloadsOK++
			h.mu.Unlock()
		}
		h.mu.Lock()
		h.report.Phases = append(h.report.Phases, phaseReport{Name: name, Faults: spec, Sites: reg.Snapshot()})
		h.mu.Unlock()
	}
}

// finalChecks verifies golden byte-identity for every term and that the
// server's own metrics agree with the chaos we inflicted.
func (h *harness) finalChecks() {
	for _, term := range h.terms {
		body, status, err := get(h.client, h.base+relaxPath(term, h.k))
		if err != nil || status != http.StatusOK {
			h.violatef("final: GET /relax?term=%q: status %d, err %v", term, status, err)
			continue
		}
		if string(body) != string(h.golden[term]) {
			h.report.Mismatches++
			h.violatef("final: response for %q differs from golden after faults cleared", term)
		}
	}
	if body, status, err := get(h.client, h.base+h.explainURL()); err != nil || status != http.StatusOK || !bytes.Equal(body, h.explainGolden) {
		h.report.Mismatches++
		h.violatef("final: GET %s: status %d, err %v, or body differs from golden", h.explainURL(), status, err)
	}
	if body, status, err := post(h.client, h.base+"/relax/batch", h.batchBody); err != nil || status != http.StatusOK || !bytes.Equal(body, h.batchGolden) {
		h.report.Mismatches++
		h.violatef("final: POST /relax/batch: status %d, err %v, or body differs from golden", status, err)
	}

	h.report.Panics = h.panics.Load()
	if h.report.Panics != 0 {
		h.violatef("final: %d handler panic(s)", h.report.Panics)
	}

	gen, reloadFails, err := h.scrapeMetrics()
	if err != nil {
		h.violatef("final: scraping /metrics: %v", err)
		return
	}
	h.report.Generation = gen
	if gen != h.expectedGen {
		h.violatef("final: bundle generation %d, want %d (a rejected reload must not advance it)", gen, h.expectedGen)
	}
	if reloadFails != h.report.ReloadsFailed {
		h.violatef("final: medrelax_reload_failures_total = %d, want %d", reloadFails, h.report.ReloadsFailed)
	}
	h.report.RelaxPaths = indexedPaths(h.engine.Stats(), h.violatef)
	log.Printf("chaos: final: generation %d, %d ok / %d failed reloads, %d panics, relax paths %v",
		gen, h.report.ReloadsOK, h.report.ReloadsFailed, h.report.Panics, h.report.RelaxPaths)
}

// scrapeMetrics pulls the generation gauge and reload-failure counter out
// of the Prometheus text exposition.
func (h *harness) scrapeMetrics() (gen, reloadFails int, err error) {
	body, status, err := get(h.client, h.base+"/metrics")
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d, err %v", status, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		switch fields[0] {
		case "medrelax_bundle_generation":
			gen, _ = strconv.Atoi(fields[1])
		case "medrelax_reload_failures_total":
			reloadFails, _ = strconv.Atoi(fields[1])
		}
	}
	return gen, reloadFails, nil
}

func (h *harness) writeReport(path string) error {
	h.report.Panics = h.panics.Load()
	b, err := json.MarshalIndent(h.report, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}
