// Command chaos is the crash-safety harness. It boots the serving stack
// kbserver runs — a published flat bundle mapped by engine.LoadSnapshot, a
// serving.Engine that reloads it, the server API — in one of two topologies:
// one stack, or (-router) three stacks behind an in-process kbrouter. It
// captures golden answers from a stack before any fault, drives concurrent
// retrying traffic at the topology's front door (GET /relax, every fourth
// request a three-term POST /relax/batch and every sixteenth a POST /chat turn
// on a fresh session) while the topology's faults fire, replays the captures
// once they clear, and asserts the invariants the fault layer promises.
//
// In both topologies:
//
//   - zero panics anywhere in a handler stack
//   - every golden capture is exactly what encoding/json writes, and every
//     200 body — a GET's, or a batch item's, which lacks only the GET body's
//     trailing newline — is byte-identical to it: no torn, mixed-generation,
//     partially-relaxed or divergent answer escapes a reload or a failover
//   - every /chat reply is byte-identical to its golden capture too: each
//     generation derives its dialogue afresh, and it answers alike
//   - no answer carries a status outside 200 and the topology's tolerated
//     ones, and no request fails in transport
//   - once faults clear, every term's GET, an explain=true GET, a batch
//     with a 404 and a 400 item and every golden /chat turn answer their
//     golden bytes again, and the candidate index served requests of the
//     last generation
//
// The stack tolerates 429, 503 and 504 (an injected fault maps to a 503 with
// Retry-After, a timeout to a 504 — never an opaque 500), and:
//
//   - a corrupt bundle never becomes the serving generation: the reload
//     fails, medrelax_reload_failures_total rises, the generation gauge
//     does not
//   - a torn SaveFileAtomic, torn a third or two thirds in, leaves the
//     previous bundle intact and no temp litter
//   - a JSON document (the retired v1 bundle) pushed and reloaded is refused
//     by name ("json v1"), like any corrupt push
//
// The routed cluster tolerates only 429 and 503 sheds — a replica's death
// must be hidden by failover and retry — and:
//
//   - a replica killed under traffic is marked unhealthy while the survivors
//     answer, and once restarted on its address it is restored:
//     kbrouter_health_transitions_total saw both moves and every replica
//     ends healthy
//   - one traced scatter batch comes back as one trace holding router and
//     replica spans
//
// The run is deterministic for a fixed -seed. A JSON report is written to
// -out; the exit status is non-zero iff any invariant was violated.
//
// Usage:
//
//	chaos -seed 42 -phase 1500ms -out chaos_report.json
//	chaos -router -seed 42 -phase 1500ms
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
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/fault"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/persist"
	"medrelax/internal/retry"
	"medrelax/internal/router"
	"medrelax/internal/server"
	"medrelax/internal/serving"
	"medrelax/internal/synthkb"
	"medrelax/internal/trace"
)

func main() {
	var (
		seed    = flag.Int64("seed", 42, "seed for world generation, fault schedules, and traffic")
		phase   = flag.Duration("phase", 1500*time.Millisecond, "duration of each traffic phase")
		workers = flag.Int("workers", 6, "concurrent traffic workers per phase")
		k       = flag.Int("k", 5, "results per /relax request")
		out     = flag.String("out", "chaos_report.json", "JSON run report path")
		dir     = flag.String("dir", "", "working directory for the bundle (default: a temp dir)")
		routed  = flag.Bool("router", false, "run three stacks behind kbrouter and kill/restart one under traffic, instead of one stack under backend faults and reloads")
	)
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	h, err := newHarness(*seed, *phase, *workers, *k, *dir, *routed)
	if err != nil {
		log.Fatalf("chaos: setup: %v", err)
	}
	h.run()
	h.cleanup()

	if err := h.writeReport(*out); err != nil {
		log.Fatalf("chaos: writing report: %v", err)
	}
	r := &h.report
	if n := len(r.Violations); n > 0 {
		log.Printf("chaos: FAIL — %d invariant violation(s):", n)
		for _, v := range r.Violations {
			log.Printf("chaos:   - %s", v)
		}
		os.Exit(1)
	}
	log.Printf("chaos: PASS — %d requests (%d batch items, %d chat turns), %d retries, %d reloads (%d refused, all expected), %d kills, %d restarts, 0 panics, 0 mismatches",
		r.Requests, r.BatchItems, r.ChatTurns, r.Retries, r.ReloadsOK+r.ReloadsFailed, r.ReloadsFailed, r.Kills, r.Restarts)
}

// phaseReport records one traffic phase's outcome for the run report.
// ByStatus counts answers: a GET is one, a batch answered 200 one per item,
// and any other batch one with its HTTP status.
type phaseReport struct {
	Name       string                     `json:"name"`
	Faults     string                     `json:"faults,omitempty"`
	Requests   int64                      `json:"requests"`
	BatchItems int64                      `json:"batchItems,omitempty"`
	ChatTurns  int64                      `json:"chatTurns,omitempty"`
	Retries    int64                      `json:"retries"`
	ByStatus   map[string]int             `json:"byStatus"`
	Sites      map[string]fault.SiteStats `json:"sites,omitempty"`
}

// report is the JSON artifact summarizing the whole run. The reload fields
// are the stack's, the replica, kill and trace fields the routed cluster's.
type report struct {
	Seed          int64         `json:"seed"`
	Replicas      []string      `json:"replicas,omitempty"`
	Terms         int           `json:"terms"`
	Phases        []phaseReport `json:"phases"`
	Requests      int64         `json:"requests"`
	BatchItems    int64         `json:"batchItems"`
	ChatTurns     int64         `json:"chatTurns"`
	Retries       int64         `json:"retries"`
	ReloadsOK     int           `json:"reloadsOk,omitempty"`
	ReloadsFailed int           `json:"reloadsFailed,omitempty"`
	Generation    int           `json:"generation,omitempty"`
	Kills         int           `json:"kills,omitempty"`
	Restarts      int           `json:"restarts,omitempty"`
	Traces        uint64        `json:"tracesCaptured,omitempty"`
	// RelaxPaths is the kernel request count per serve path, summed over the
	// stacks' last generations: the world is indexed, so "indexed" must not
	// be zero.
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

	// stacks are booted with opts. Traffic goes to base — the stack, or the
	// router — and golden answers come from direct, the stack or replica 0.
	// An answer may carry 200 or one of tolerated.
	opts         serving.Options
	stacks       []*stack
	base, direct string
	tolerated    []int
	client       *http.Client
	panics       atomic.Int64

	// The routed cluster's router, its server and its trace recorder.
	rt        *router.Router
	routerSrv *http.Server
	traceRec  *trace.Recorder

	terms  []string
	golden map[string][]byte
	// One explain=true GET and one POST /relax/batch, captured with the
	// per-term bodies and replayed by the final checks.
	batchBody, explainGolden, batchGolden []byte
	// chats are the /chat turns traffic asks, each on a fresh session, and
	// chatGolden their replies.
	chats      []string
	chatGolden map[string][]byte

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

// mismatchf is a violation by an answer that is not its golden bytes.
func (h *harness) mismatchf(format string, args ...any) {
	h.mu.Lock()
	h.report.Mismatches++
	h.mu.Unlock()
	h.violatef(format, args...)
}

// newHarness builds a small deterministic world, publishes it as the flat
// bundle production serves via the crash-safe writer, and boots the
// topology over it: every stack, and every reload, good or refused, goes
// through the mapped reader.
func newHarness(seed int64, phase time.Duration, workers, k int, dir string, routed bool) (*harness, error) {
	h := &harness{
		seed:        seed,
		phase:       phase,
		workers:     workers,
		k:           k,
		dir:         dir,
		client:      &http.Client{Timeout: 10 * time.Second},
		golden:      map[string][]byte{},
		chatGolden:  map[string][]byte{},
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
	log.Printf("chaos: bundle published: %s (%d bytes)", h.bundle, len(h.goodBytes))
	if routed {
		return h, h.bootCluster()
	}
	return h, h.bootSingle()
}

// bootSingle boots the stack topology: one stack, its options tuned so the
// faults reach the backend.
func (h *harness) bootSingle() error {
	h.opts = serving.DefaultOptions()
	// A tiny cache with a short TTL so traffic actually reaches the backend
	// fault site instead of being absorbed by cache hits, plus a stale window
	// so the degraded path gets exercised too.
	h.opts.CacheCapacity = 8
	h.opts.CacheTTL = 75 * time.Millisecond
	h.opts.CacheStaleWindow = 200 * time.Millisecond
	h.opts.MaxConcurrent = 64
	h.opts.RelaxTimeout = 2 * time.Second
	h.opts.SlowQuery = 0
	h.tolerated = []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout}
	s, err := h.bootStack("127.0.0.1:0")
	if err != nil {
		return err
	}
	h.stacks = []*stack{s}
	h.base, h.direct = s.url(), s.url()
	log.Printf("chaos: serving stack up at %s", h.base)
	return nil
}

// buildIngestion generates a compact synthetic world and ingests it with
// the exact-match mapper — no embedding training, so the harness boots in
// about a second and stays CI-friendly — with a materialized store built
// under the relax options a stack serves a store-less bundle with, and a
// candidate index out to the serving ceiling (engine.Config's default
// MaxRadius). So every drill's requests read the store's rankings or score
// views of the mapping a reload swaps under them.
func buildIngestion(seed int64) (*core.Ingestion, error) {
	world, med, corp, err := medkb.GenerateWorld(seed, synthkb.Config{ConditionsPerPair: 2}, medkb.Config{Drugs: 25})
	if err != nil {
		return nil, err
	}
	return core.Ingest(med.Ontology, med.Store, world.Graph, corp, match.NewExact(world.Graph), core.IngestOptions{
		Materialize:    core.MaterializeOptions{Enabled: true, Relax: core.RelaxOptions{Radius: 3, DynamicRadius: true}},
		CandidateIndex: core.CandidateIndexOptions{Enabled: true, Radius: 8},
	})
}

// stack is one serving stack the way kbserver runs one — the bundle mapped
// by engine.LoadSnapshot, a serving.Engine whose Loader maps it afresh, the
// server API and recoverPanics — on a loopback listener a drill can kill.
type stack struct {
	addr   string
	engine *serving.Engine
	srv    *http.Server
}

func (s *stack) url() string { return "http://" + s.addr }

// bootStack boots a stack on addr. "127.0.0.1:0" picks a port; a restarted
// stack rebinds the address it was killed on, retrying while the OS holds it.
func (h *harness) bootStack(addr string) (*stack, error) {
	snap, err := engine.LoadSnapshot(h.bundle)
	if err != nil {
		return nil, err
	}
	opts := h.opts
	opts.Loader = func() (server.Backend, error) {
		snap, err := engine.LoadSnapshot(h.bundle)
		if err != nil {
			return nil, err
		}
		return snap, nil
	}
	eng := serving.NewEngine(snap, opts)
	lis, err := net.Listen("tcp", addr)
	for i := 0; err != nil && i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		lis, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	s := &stack{addr: lis.Addr().String(), engine: eng,
		srv: &http.Server{Handler: h.recoverPanics(eng.Handler(server.New(eng).Handler()))}}
	go s.srv.Serve(lis)
	return s, nil
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
	if h.rt != nil {
		h.routerSrv.Close()
		h.rt.Stop()
	}
	for _, s := range h.stacks {
		s.srv.Close()
	}
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
	if h.rt != nil {
		h.clusterPhases()
	} else {
		h.stackPhases()
	}
	h.finalChecks()
}

// stackPhases is the stack's schedule.
func (h *harness) stackPhases() {
	// Transient backend errors under concurrent reload chaos: clients retry
	// on 503; corrupt bundles are pushed and reloaded and must be rejected
	// while the live generation keeps answering.
	h.trafficPhase("backend-errors", fmt.Sprintf("backend.relax:error,rate=0.15,seed=%d,msg=chaos backend fault", h.seed), h.phase, h.reloadStorm)
	// Injected latency: slower answers are fine; wrong or internal-error
	// answers are not.
	h.trafficPhase("backend-latency", fmt.Sprintf("backend.relax:latency,delay=20ms,rate=0.5,seed=%d", h.seed+1), h.phase, nil)
	// Torn writes: publishing a new bundle through a torn writer — torn at
	// two offsets — must fail without disturbing the live file or leaving
	// temp litter, and the live file must still load.
	h.tornWritePhase()
	// Faults cleared: every term must serve its golden bytes again.
	h.trafficPhase("recovery", "", h.phase, nil)
}

// captureGolden records, from the direct stack before any fault is armed,
// the byte-exact answer to every term's GET, to an explain=true GET, to
// one batch of every term plus an unknown one (a 404 item) and an
// out-of-range k (a 400), and to a /chat question about each of the first
// three terms, and holds each relax body to encoding/json.
func (h *harness) captureGolden() error {
	body, status, err := get(h.client, h.direct+"/terms?n=25")
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
		b, status, err := get(h.client, h.direct+relaxPath(term, h.k))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("golden GET /relax?term=%q: status %d, err %v", term, status, err)
		}
		h.golden[term] = b
	}
	explain, status, err := get(h.client, h.direct+h.explainURL())
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("golden GET %s: status %d, err %v", h.explainURL(), status, err)
	}
	h.explainGolden = explain
	queries := []server.Request{{Term: "no such term xyzzy", K: h.k}, {Term: h.terms[0], K: 5000}}
	for _, term := range h.terms {
		queries = append(queries, server.Request{Term: term, K: h.k})
	}
	if h.batchBody, err = json.Marshal(server.BatchRequest{Queries: queries}); err != nil {
		return err
	}
	if h.batchGolden, status, err = post(h.client, h.direct+"/relax/batch", h.batchBody); err != nil || status != http.StatusOK {
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
	// A chat capture that understands nothing would hold every later turn to
	// a refusal, so at least one must answer.
	answered := false
	for i, term := range h.terms[:min(3, len(h.terms))] {
		text := "what drugs treat " + term
		b, status, err := post(h.client, h.direct+"/chat", chatBody(fmt.Sprintf("golden-%d", i), text))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("golden POST /chat %q: status %d, err %v", text, status, err)
		}
		var resp server.ChatResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			return fmt.Errorf("golden POST /chat %q: %v", text, err)
		}
		answered = answered || (resp.Understood && len(resp.Answers)+len(resp.Suggestions) > 0)
		h.chats = append(h.chats, text)
		h.chatGolden[text] = b
	}
	if !answered {
		h.violatef("golden POST /chat: no turn of %q was answered", h.chats)
	}
	log.Printf("chaos: golden capture: %d terms + explain GET + %d-item batch, held to encoding/json, + %d chat turns", len(h.terms), len(queries), len(h.chats))
	return nil
}

// chatBody is a POST /chat body: one turn on the named session.
func chatBody(session, text string) []byte {
	b, _ := json.Marshal(server.ChatRequest{Session: session, Text: text}) // strings always marshal
	return b
}

// explainURL is the golden explain=true request: the first term.
func (h *harness) explainURL() string { return relaxPath(h.terms[0], h.k) + "&explain=true" }

// relaxPath is the GET /relax path of one golden query.
func relaxPath(term string, k int) string {
	return "/relax?term=" + strings.ReplaceAll(term, " ", "+") + "&k=" + strconv.Itoa(k)
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

// ask sends terms to the front door as one GET (one term) or one POST
// /relax/batch, with relaxRetry, and returns each term's reply; a batch not
// answered 200 is one reply with its HTTP status.
func (h *harness) ask(terms []string, rng *rand.Rand) ([]reply, int, error) {
	if len(terms) == 1 {
		body, status, attempts, err := relaxRetry(h.client, http.MethodGet, h.base+relaxPath(terms[0], h.k), nil, rng)
		return []reply{{status, body}}, attempts, err
	}
	queries := make([]server.Request, len(terms))
	for i, term := range terms {
		queries[i] = server.Request{Term: term, K: h.k}
	}
	payload, err := json.Marshal(server.BatchRequest{Queries: queries})
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

// trafficPhase arms the given fault spec (empty = none), runs script (if
// any) beside the traffic until the phase ends and closes its stop channel,
// and for dur hammers the front door from h.workers goroutines with
// retry.Policy retries on 429/503: every fourth request is a POST
// /relax/batch of three golden terms, every sixteenth a golden POST /chat turn
// on a session of its own, the rest GET /relax. Every 200 — a GET body, a
// batch item with the GET body's trailing newline dropped, or a chat reply —
// must match golden byte-for-byte, and every other answer must carry a
// tolerated status.
func (h *harness) trafficPhase(name, spec string, dur time.Duration, script func(stop <-chan struct{})) {
	var reg *fault.Registry
	if spec != "" {
		var err error
		if reg, err = fault.Parse(spec); err != nil {
			h.violatef("phase %s: bad fault spec: %v", name, err)
			return
		}
	}
	fault.SetDefault(reg)
	log.Printf("chaos: phase %s (%s): faults=%q", name, dur, spec)

	var (
		requests, batchItems, chatTurns, retries atomic.Int64
		byStatus                                 sync.Map // int -> *atomic.Int64
		wg, scriptWG                             sync.WaitGroup
	)
	count := func(status int) {
		c, _ := byStatus.LoadOrStore(status, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
	}
	stop := make(chan struct{})
	if script != nil {
		scriptWG.Add(1)
		go func() { defer scriptWG.Done(); script(stop) }()
	}
	deadline := time.Now().Add(dur)
	for w := 0; w < h.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(h.seed + int64(w)*1009))
			for i := 1; time.Now().Before(deadline); i++ {
				// Reply j answers asked[j] and must equal want[j] when it is a 200.
				var (
					asked    []string
					want     [][]byte
					kind     = "GET"
					replies  []reply
					attempts int
					err      error
				)
				if i%16 == 2 {
					text := h.chats[rng.Intn(len(h.chats))]
					asked, want, kind = []string{text}, [][]byte{h.chatGolden[text]}, "chat turn"
					var r reply
					r.body, r.status, attempts, err = relaxRetry(h.client, http.MethodPost, h.base+"/chat", chatBody(fmt.Sprintf("chaos-%s-%d-%d", name, w, i), text), rng)
					replies = []reply{r}
					chatTurns.Add(1)
				} else {
					asked = []string{h.terms[rng.Intn(len(h.terms))]}
					if i%4 == 0 {
						asked = append(asked, h.terms[rng.Intn(len(h.terms))], h.terms[rng.Intn(len(h.terms))])
						batchItems.Add(int64(len(asked)))
						kind = "batch item"
					}
					for _, term := range asked {
						golden := h.golden[term]
						if len(asked) > 1 {
							golden = bytes.TrimSuffix(golden, []byte("\n"))
						}
						want = append(want, golden)
					}
					replies, attempts, err = h.ask(asked, rng)
				}
				requests.Add(1)
				retries.Add(int64(attempts - 1))
				if err != nil {
					h.violatef("phase %s: transport error for %q: %v", name, asked, err)
					continue
				}
				for j, r := range replies {
					count(r.status)
					switch {
					case r.status == http.StatusOK:
						if !bytes.Equal(r.body, want[j]) {
							h.mismatchf("phase %s: %s for %q differs from golden", name, kind, asked[j])
						}
					case slices.Contains(h.tolerated, r.status):
						// Retries exhausted under injected faults, or a shed.
					default:
						h.violatef("phase %s: unexpected status %d for %q: %s", name, r.status, asked[j], r.body)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scriptWG.Wait()

	pr := phaseReport{Name: name, Faults: spec, Requests: requests.Load(), BatchItems: batchItems.Load(),
		ChatTurns: chatTurns.Load(), Retries: retries.Load(), ByStatus: map[string]int{}, Sites: reg.Snapshot()}
	byStatus.Range(func(k, v any) bool {
		pr.ByStatus[strconv.Itoa(k.(int))] = int(v.(*atomic.Int64).Load())
		return true
	})
	h.mu.Lock()
	h.report.Phases = append(h.report.Phases, pr)
	h.report.Requests += pr.Requests
	h.report.BatchItems += pr.BatchItems
	h.report.ChatTurns += pr.ChatTurns
	h.report.Retries += pr.Retries
	h.mu.Unlock()
	log.Printf("chaos: phase %s: %d requests (%d batch items, %d chat turns), %d retries, statuses %v", name, pr.Requests, pr.BatchItems, pr.ChatTurns, pr.Retries, pr.ByStatus)
}

// reloadStorm alternates corrupt and good bundle publishes, poking
// /admin/reload after each, until stop closes. Corrupt publishes must be
// rejected (reload fails, generation unchanged); good publishes must swap
// generations.
func (h *harness) reloadStorm(stop <-chan struct{}) {
	// The bit flip lands in the middle of the largest section: a byte of the
	// alignment padding between sections is under no checksum.
	info, err := persist.InspectFile(h.bundle)
	if err != nil {
		h.violatef("reload storm: inspecting the bundle: %v", err)
		return
	}
	var largest persist.SectionInfo
	for _, s := range info.Sections {
		if s.Length > largest.Length {
			largest = s
		}
	}
	flipAt := int(largest.Offset + largest.Length/2)
	corruptions := []struct {
		name string
		data func() []byte
	}{
		{"truncated", func() []byte { return h.goodBytes[:len(h.goodBytes)*3/5] }},
		{"bitflip", func() []byte {
			b := append([]byte(nil), h.goodBytes...)
			b[flipAt] ^= 0x40
			return b
		}},
		{"empty", func() []byte { return nil }},
		{"garbage", func() []byte { return []byte("this is not a bundle\n") }},
		{"retired-json", func() []byte { return []byte(`{"version":1,"eksConcepts":[],"eksRoot":0}` + "\n") }},
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
		if status, gen, msg := h.adminReload(); status == http.StatusOK {
			h.violatef("reload storm: %s bundle was accepted (generation %d)", c.name, gen)
		} else {
			if c.name == "retired-json" && !strings.Contains(msg, "json v1") {
				h.violatef("reload storm: the retired-json refusal does not name the form: %q", msg)
			}
			h.mu.Lock()
			h.report.ReloadsFailed++
			h.mu.Unlock()
		}
		if err := h.publish(h.goodBytes); err != nil {
			h.violatef("reload storm: restoring good bundle: %v", err)
			continue
		}
		if status, gen, _ := h.adminReload(); status != http.StatusOK {
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

// adminReload POSTs /admin/reload and returns the status, the reported
// generation (0 when the reload failed) and the refusal's error text.
func (h *harness) adminReload() (int, int, string) {
	resp, err := h.client.Post(h.base+"/admin/reload", "application/json", nil)
	if err != nil {
		h.violatef("POST /admin/reload: %v", err)
		return 0, 0, ""
	}
	defer resp.Body.Close()
	var body struct {
		Generation int    `json:"generation"`
		Error      string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Generation, body.Error
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
	// Tearing a write is the check: a flat save torn a third of the way in,
	// and one torn two thirds in, must each leave the live bundle, which the
	// server has mapped, untouched.
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("torn-write-%d", i)
		spec := fmt.Sprintf("persist.write:torn,bytes=%d,count=1,seed=%d", i*len(h.goodBytes)/3, h.seed+1+int64(i))
		reg, err := fault.Parse(spec)
		if err != nil {
			h.violatef("%s phase: bad spec: %v", name, err)
			return
		}
		fault.SetDefault(reg)
		log.Printf("chaos: phase %s: faults=%q", name, spec)

		if err := persist.SaveFileAtomic(h.bundle, ing, persist.FormatFlat); err == nil {
			h.violatef("%s phase: SaveFileAtomic succeeded through a torn writer", name)
		}
		fault.SetDefault(nil)

		if got, err := os.ReadFile(h.bundle); err != nil {
			h.violatef("%s phase: live bundle unreadable after torn save: %v", name, err)
		} else if !bytes.Equal(got, h.goodBytes) {
			h.violatef("%s phase: live bundle changed by a failed save", name)
		}
		if litter, _ := filepath.Glob(filepath.Join(h.dir, ".bundle-*.tmp")); len(litter) > 0 {
			h.violatef("%s phase: temp litter left behind: %v", name, litter)
		}
		if status, _, _ := h.adminReload(); status != http.StatusOK {
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

// finalChecks replays every golden capture at the front door once the
// faults have cleared — each term's GET, the explain GET, the batch with
// its 404 and 400 items and each chat turn on a fresh session, retried
// past a shed like traffic's — counts
// panics and serve paths, and then makes the topology's own checks.
func (h *harness) finalChecks() {
	for _, term := range h.terms {
		body, status, err := get(h.client, h.base+relaxPath(term, h.k))
		if err != nil || status != http.StatusOK || !bytes.Equal(body, h.golden[term]) {
			h.mismatchf("final: GET /relax?term=%q: status %d, err %v, or body differs from golden", term, status, err)
		}
	}
	if body, status, err := get(h.client, h.base+h.explainURL()); err != nil || status != http.StatusOK || !bytes.Equal(body, h.explainGolden) {
		h.mismatchf("final: GET %s: status %d, err %v, or body differs from golden", h.explainURL(), status, err)
	}
	if body, status, err := post(h.client, h.base+"/relax/batch", h.batchBody); err != nil || status != http.StatusOK || !bytes.Equal(body, h.batchGolden) {
		h.mismatchf("final: POST /relax/batch: status %d, err %v, or body differs from golden", status, err)
	}
	// A chat turn may still meet the rate limit the traffic drained.
	rng := rand.New(rand.NewSource(h.seed))
	for i, text := range h.chats {
		if body, status, _, err := relaxRetry(h.client, http.MethodPost, h.base+"/chat", chatBody(fmt.Sprintf("final-%d", i), text), rng); err != nil || status != http.StatusOK || !bytes.Equal(body, h.chatGolden[text]) {
			h.mismatchf("final: POST /chat %q: status %d, err %v, or body differs from golden", text, status, err)
		}
	}

	h.report.Panics = h.panics.Load()
	if h.report.Panics != 0 {
		h.violatef("final: %d handler panic(s)", h.report.Panics)
	}
	h.report.RelaxPaths = map[string]uint64{}
	for _, s := range h.stacks {
		paths, _ := s.engine.Stats()["relaxPaths"].(map[string]uint64)
		for path, n := range paths {
			h.report.RelaxPaths[path] += n
		}
	}
	for _, path := range []string{"materialized", "indexed"} {
		if h.report.RelaxPaths[path] == 0 {
			h.violatef("final: no request of the last generation took the %s path: relaxPaths %v", path, h.report.RelaxPaths)
		}
	}

	if h.rt != nil {
		h.clusterChecks()
	} else {
		h.stackChecks()
	}
	log.Printf("chaos: final: %d panics, relax paths %v", h.report.Panics, h.report.RelaxPaths)
}

// stackChecks holds the stack's own metrics to the chaos inflicted: the
// generation gauge counts exactly the good reloads, and the reload-failure
// counter exactly the refused ones.
func (h *harness) stackChecks() {
	body, status, err := get(h.client, h.base+"/metrics")
	if err != nil || status != http.StatusOK {
		h.violatef("final: scraping /metrics: status %d, err %v", status, err)
		return
	}
	var gen, reloadFails int
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
	h.report.Generation = gen
	if gen != h.expectedGen {
		h.violatef("final: bundle generation %d, want %d (a rejected reload must not advance it)", gen, h.expectedGen)
	}
	if reloadFails != h.report.ReloadsFailed {
		h.violatef("final: medrelax_reload_failures_total = %d, want %d", reloadFails, h.report.ReloadsFailed)
	}
	log.Printf("chaos: final: generation %d, %d ok / %d failed reloads", gen, h.report.ReloadsOK, h.report.ReloadsFailed)
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
