// The -router drill is the distributed-tier counterpart to the main
// chaos run: it boots three full replica serving stacks plus an
// in-process kbrouter, captures golden answers from a single replica,
// then drives concurrent traffic THROUGH the router while killing one
// replica mid-phase and restarting it on the same address. Invariants:
//
//   - every 200 through the router is byte-identical to the
//     single-replica golden capture — failover must never surface a
//     torn or divergent answer
//   - zero non-shed errors: the only tolerated non-200 statuses are
//     429/503 admission sheds; a request failing because a replica
//     died means failover or retry did not do its job
//   - the killed replica is marked unhealthy by the prober, traffic
//     keeps flowing on the survivors, and after restart the replica is
//     restored and serves golden bytes again
//   - a scatter-gather batch through the router stays byte-identical
//     to the direct run after the kill/restart cycle
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"medrelax/internal/engine"
	"medrelax/internal/retry"
	"medrelax/internal/router"
	"medrelax/internal/server"
	"medrelax/internal/serving"
	"medrelax/internal/trace"
)

// routerReport is the JSON artifact for a -router run.
type routerReport struct {
	Seed       int64         `json:"seed"`
	Replicas   []string      `json:"replicas"`
	Terms      int           `json:"terms"`
	Phases     []phaseReport `json:"phases"`
	Requests   int64         `json:"requests"`
	Retries    int64         `json:"retries"`
	Shed       int64         `json:"shed"`
	Kills      int           `json:"kills"`
	Restarts   int           `json:"restarts"`
	Mismatches int64         `json:"mismatches"`
	// RelaxPaths is the shared snapshot's kernel request count per serve path.
	RelaxPaths map[string]uint64 `json:"relaxPaths"`
	Traces     uint64            `json:"tracesCaptured"`
	Violations []string          `json:"violations"`
}

// replicaProc is one replica "process": a serving stack on a loopback
// listener that can be killed and later restarted on the same address,
// the in-process stand-in for an operator bouncing a kbserver.
type replicaProc struct {
	addr      string
	mkHandler func() http.Handler

	mu  sync.Mutex
	srv *http.Server
}

func (p *replicaProc) start() error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.addr = lis.Addr().String()
	p.serveOn(lis)
	return nil
}

func (p *replicaProc) serveOn(lis net.Listener) {
	srv := &http.Server{Handler: p.mkHandler()}
	p.mu.Lock()
	p.srv = srv
	p.mu.Unlock()
	go srv.Serve(lis)
}

// kill closes the listener and every open connection, so in-flight
// requests fail at the router the way a SIGKILLed replica's would.
func (p *replicaProc) kill() {
	p.mu.Lock()
	srv := p.srv
	p.srv = nil
	p.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// restart rebinds the replica's original address (the OS may hold the
// port briefly, so retry) and serves a fresh handler on it.
func (p *replicaProc) restart() error {
	var lastErr error
	for i := 0; i < 50; i++ {
		lis, err := net.Listen("tcp", p.addr)
		if err == nil {
			p.serveOn(lis)
			return nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return lastErr
}

type routerDrill struct {
	seed    int64
	phase   time.Duration
	workers int
	k       int

	replicas  []*replicaProc
	rt        *router.Router
	routerSrv *http.Server
	base      string // router base URL — all traffic goes through here
	direct    string // replica 0, golden capture only
	client    *http.Client

	terms       []string
	golden      map[string][]byte
	batchBody   []byte
	batchGolden []byte
	traceRec    *trace.Recorder
	snap        *engine.Snapshot // the one snapshot every replica serves

	mu     sync.Mutex
	report routerReport
}

func (d *routerDrill) violatef(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	log.Printf("chaos: VIOLATION: %s", msg)
	d.mu.Lock()
	d.report.Violations = append(d.report.Violations, msg)
	d.mu.Unlock()
}

// newRouterDrill builds one shared snapshot, boots three replica stacks
// over it (admission and caches stay per-replica, as in production),
// and fronts them with a router tuned for fast failure detection so the
// drill fits in a CI-friendly wall clock.
func newRouterDrill(seed int64, phase time.Duration, workers, k int) (*routerDrill, error) {
	d := &routerDrill{
		seed:    seed,
		phase:   phase,
		workers: workers,
		k:       k,
		golden:  map[string][]byte{},
		client:  &http.Client{Timeout: 10 * time.Second},
	}
	d.report.Seed = seed

	ing, err := buildIngestion(seed)
	if err != nil {
		return nil, err
	}
	snap := engine.New(ing, engine.Config{})
	d.snap = snap
	// Replicas join traces the router starts (no self-sampling), the same
	// split a production fleet runs: sampling decisions live at the edge.
	replicaTracer := trace.NewTracer("kbserver", 0, trace.NewRecorder(64, 8))
	mkHandler := func() http.Handler {
		sopts := serving.DefaultOptions()
		sopts.Tracer = replicaTracer
		eng := serving.NewEngine(snap, sopts)
		return eng.Handler(server.New(eng).Handler())
	}
	addrs := make([]string, 3)
	for i := range addrs {
		p := &replicaProc{mkHandler: mkHandler}
		if err := p.start(); err != nil {
			return nil, err
		}
		d.replicas = append(d.replicas, p)
		addrs[i] = p.addr
	}
	d.report.Replicas = addrs
	d.direct = "http://" + addrs[0]

	opts := router.DefaultOptions()
	opts.Replicas = addrs
	opts.ProbeInterval = 50 * time.Millisecond
	opts.ProbeTimeout = 150 * time.Millisecond
	opts.FailAfter = 2
	opts.Retry = retry.Policy{MaxRetries: 3, Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond}
	d.traceRec = trace.NewRecorder(64, 8)
	opts.Tracer = trace.NewTracer("kbrouter", 8, d.traceRec)
	d.rt = router.New(opts)
	d.rt.Start()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.routerSrv = &http.Server{Handler: d.rt.Handler()}
	go d.routerSrv.Serve(lis)
	d.base = "http://" + lis.Addr().String()
	log.Printf("chaos: router drill up: router %s fronting %v", d.base, addrs)
	return d, nil
}

func (d *routerDrill) cleanup() {
	d.routerSrv.Close()
	d.rt.Stop()
	for _, p := range d.replicas {
		p.kill()
	}
}

func (d *routerDrill) run() {
	if err := d.captureGolden(); err != nil {
		d.violatef("golden capture: %v", err)
		return
	}

	// Phase 1: steady state — every routed answer must match golden.
	d.trafficPhase("router-steady", d.phase, nil)

	// Phase 2: kill one replica mid-phase, let the survivors absorb the
	// traffic, then restart it on the same address. The traffic never
	// pauses; failover and the active prober have to hide the bounce.
	victim := d.replicas[1]
	d.trafficPhase("router-kill-restart", 3*d.phase, func() {
		time.Sleep(d.phase / 2)
		log.Printf("chaos: killing replica %s", victim.addr)
		victim.kill()
		d.mu.Lock()
		d.report.Kills++
		d.mu.Unlock()

		deadline := time.Now().Add(2 * time.Second)
		for d.rt.ReplicaHealthy(victim.addr) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if d.rt.ReplicaHealthy(victim.addr) {
			d.violatef("killed replica %s never marked unhealthy", victim.addr)
		} else {
			log.Printf("chaos: replica %s marked unhealthy", victim.addr)
		}

		time.Sleep(d.phase)
		if err := victim.restart(); err != nil {
			d.violatef("restarting replica %s: %v", victim.addr, err)
			return
		}
		d.mu.Lock()
		d.report.Restarts++
		d.mu.Unlock()
		deadline = time.Now().Add(5 * time.Second)
		for !d.rt.ReplicaHealthy(victim.addr) && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if !d.rt.ReplicaHealthy(victim.addr) {
			d.violatef("restarted replica %s never marked healthy again", victim.addr)
		} else {
			log.Printf("chaos: replica %s restored", victim.addr)
		}
	})

	d.finalChecks(victim.addr)
}

// captureGolden records byte-exact single-replica answers — per term and
// for one scatter-gather batch — before any traffic flows.
func (d *routerDrill) captureGolden() error {
	body, status, err := d.get(d.direct + "/terms?n=25")
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
	d.terms = tr.Terms
	d.report.Terms = len(tr.Terms)
	for _, term := range d.terms {
		b, status, err := d.get(d.direct + d.relaxPath(term))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("golden GET /relax?term=%q: status %d, err %v", term, status, err)
		}
		d.golden[term] = b
	}

	type item struct {
		Term string `json:"term"`
		K    int    `json:"k"`
	}
	items := make([]item, 0, len(d.terms))
	for _, term := range d.terms {
		items = append(items, item{Term: term, K: d.k})
	}
	if d.batchBody, err = json.Marshal(map[string]any{"queries": items}); err != nil {
		return err
	}
	b, status, err := d.post(d.direct+"/relax/batch", d.batchBody)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("golden POST /relax/batch: status %d, err %v", status, err)
	}
	d.batchGolden = b
	log.Printf("chaos: golden capture: %d terms + %d-item batch", len(d.terms), len(items))
	return nil
}

func (d *routerDrill) relaxPath(term string) string {
	return "/relax?term=" + strings.ReplaceAll(term, " ", "+") + "&k=" + strconv.Itoa(d.k)
}

func (d *routerDrill) get(url string) ([]byte, int, error) {
	resp, err := d.client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func (d *routerDrill) post(url string, body []byte) ([]byte, int, error) {
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// trafficPhase hammers /relax through the router from d.workers
// goroutines for dur, running the optional fault script concurrently.
// Every 200 must match golden; 429/503 count as sheds; anything else —
// including a transport error to the router — is a violation.
func (d *routerDrill) trafficPhase(name string, dur time.Duration, script func()) {
	log.Printf("chaos: phase %s (%s)", name, dur)
	var (
		requests, retries, shed atomic.Int64
		byStatus                sync.Map
		wg, scriptWG            sync.WaitGroup
	)
	count := func(status int) {
		c, _ := byStatus.LoadOrStore(status, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
	}
	if script != nil {
		scriptWG.Add(1)
		go func() { defer scriptWG.Done(); script() }()
	}
	deadline := time.Now().Add(dur)
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.seed + int64(w)*1009))
			for time.Now().Before(deadline) {
				term := d.terms[rng.Intn(len(d.terms))]
				body, status, attempts, err := d.relaxRetry(term, rng)
				requests.Add(1)
				retries.Add(int64(attempts - 1))
				if err != nil {
					d.violatef("phase %s: transport error for %q: %v", name, term, err)
					continue
				}
				count(status)
				switch status {
				case http.StatusOK:
					if !bytes.Equal(body, d.golden[term]) {
						d.mu.Lock()
						d.report.Mismatches++
						d.mu.Unlock()
						d.violatef("phase %s: routed response for %q differs from golden", name, term)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Admission sheds are the contract under overload; a dead
					// replica must never surface here — failover hides it.
					shed.Add(1)
				default:
					d.violatef("phase %s: non-shed error %d for %q: %s", name, status, term, body)
				}
			}
		}(w)
	}
	wg.Wait()
	scriptWG.Wait()

	pr := phaseReport{Name: name, Requests: requests.Load(), Retries: retries.Load(), ByStatus: map[string]int{}}
	byStatus.Range(func(k, v any) bool {
		pr.ByStatus[strconv.Itoa(k.(int))] = int(v.(*atomic.Int64).Load())
		return true
	})
	d.mu.Lock()
	d.report.Phases = append(d.report.Phases, pr)
	d.report.Requests += pr.Requests
	d.report.Retries += pr.Retries
	d.report.Shed += shed.Load()
	d.mu.Unlock()
	log.Printf("chaos: phase %s: %d requests, %d retries, statuses %v", name, pr.Requests, pr.Retries, pr.ByStatus)
}

// relaxRetry fetches one term through the router with the shared backoff
// policy on 429/503, honouring Retry-After.
func (d *routerDrill) relaxRetry(term string, rng *rand.Rand) ([]byte, int, int, error) {
	pol := retry.Policy{MaxRetries: 3, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	url := d.base + d.relaxPath(term)
	var (
		body   []byte
		status int
		err    error
	)
	for attempt := 0; ; attempt++ {
		var resp *http.Response
		resp, err = d.client.Get(url)
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}
		retryable := err != nil || retry.RetryableStatus(status)
		if !retryable || attempt == pol.MaxRetries {
			return body, status, attempt + 1, err
		}
		var hinted time.Duration
		if err == nil {
			hinted = min(retry.After(resp.Header), 50*time.Millisecond)
		}
		time.Sleep(pol.Wait(attempt, hinted, rng))
	}
}

// finalChecks replays every golden term and the golden batch through the
// router after the bounce, and cross-checks the router's own metrics:
// the victim must have transitioned unhealthy and back, and all three
// replicas must be healthy again.
func (d *routerDrill) finalChecks(victimAddr string) {
	for _, term := range d.terms {
		body, status, err := d.get(d.base + d.relaxPath(term))
		if err != nil || status != http.StatusOK {
			d.violatef("final: GET /relax?term=%q via router: status %d, err %v", term, status, err)
			continue
		}
		if !bytes.Equal(body, d.golden[term]) {
			d.mu.Lock()
			d.report.Mismatches++
			d.mu.Unlock()
			d.violatef("final: routed response for %q differs from golden after recovery", term)
		}
	}

	body, status, err := d.post(d.base+"/relax/batch", d.batchBody)
	if err != nil || status != http.StatusOK {
		d.violatef("final: POST /relax/batch via router: status %d, err %v", status, err)
	} else if !bytes.Equal(body, d.batchGolden) {
		d.mu.Lock()
		d.report.Mismatches++
		d.mu.Unlock()
		d.violatef("final: scatter-gather batch differs from single-replica golden after recovery")
	}

	metricsBody, status, err := d.get(d.base + "/metrics")
	if err != nil || status != http.StatusOK {
		d.violatef("final: GET /metrics: status %d, err %v", status, err)
		return
	}
	text := string(metricsBody)
	for _, want := range []string{
		fmt.Sprintf("kbrouter_health_transitions_total{replica=%q,to=%q}", victimAddr, "unhealthy"),
		fmt.Sprintf("kbrouter_health_transitions_total{replica=%q,to=%q}", victimAddr, "healthy"),
	} {
		if !strings.Contains(text, want) {
			d.violatef("final: metrics missing %s — the bounce was not observed", want)
		}
	}
	for _, p := range d.replicas {
		if !d.rt.ReplicaHealthy(p.addr) {
			d.violatef("final: replica %s not healthy at end of drill", p.addr)
		}
	}

	d.report.RelaxPaths = indexedPaths(d.snap.Stats(), d.violatef)
	d.checkTracing()
}

// checkTracing drives one explicitly-traced scatter batch through the
// recovered cluster and requires the router's recorder to hold a trace
// whose spans cover both services — router admission and shard legs from
// kbrouter, cache/kernel spans back-hauled from the kbserver replicas.
func (d *routerDrill) checkTracing() {
	header, traceID := trace.NewTraceparent()
	req, err := http.NewRequest(http.MethodPost, d.base+"/relax/batch", bytes.NewReader(d.batchBody))
	if err != nil {
		d.violatef("final: building traced batch request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.TraceparentHeader, header)
	resp, err := d.client.Do(req)
	if err != nil {
		d.violatef("final: traced batch request: %v", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.violatef("final: traced batch status %d", resp.StatusCode)
		return
	}

	traces, total := d.traceRec.Snapshot(false)
	d.mu.Lock()
	d.report.Traces = total
	d.mu.Unlock()
	for _, tr := range traces {
		if tr.TraceID != traceID {
			continue
		}
		services := map[string]bool{}
		names := map[string]bool{}
		for _, s := range tr.Spans {
			services[s.Service] = true
			names[s.Name] = true
		}
		switch {
		case !services["kbrouter"] || !services["kbserver"]:
			d.violatef("final: traced batch spans cover services %v, want kbrouter AND kbserver in one trace", services)
		case !names["router.admission"] || !names["router.shard"]:
			d.violatef("final: traced batch missing router spans (have %v)", names)
		case !names["serving.cache"] && !names["relax.kernel"]:
			// The batch terms may be cache-warm from the traffic phases, so
			// a kernel span is not guaranteed — but some replica-side span
			// (cache probe or kernel) must have been back-hauled.
			d.violatef("final: traced batch missing replica spans (have %v)", names)
		}
		return
	}
	d.violatef("final: trace %s not found in router recorder (%d traces held)", traceID, total)
}

func (d *routerDrill) writeReport(path string) error {
	b, err := json.MarshalIndent(d.report, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}

// runRouterDrill is the -router entry point: returns the number of
// invariant violations.
func runRouterDrill(seed int64, phase time.Duration, workers, k int, out string) int {
	d, err := newRouterDrill(seed, phase, workers, k)
	if err != nil {
		log.Fatalf("chaos: router drill setup: %v", err)
	}
	defer d.cleanup()

	d.run()

	if err := d.writeReport(out); err != nil {
		log.Fatalf("chaos: writing report: %v", err)
	}
	if n := len(d.report.Violations); n > 0 {
		log.Printf("chaos: FAIL — %d invariant violation(s):", n)
		for _, v := range d.report.Violations {
			log.Printf("chaos:   - %s", v)
		}
		return n
	}
	log.Printf("chaos: PASS — %d requests through the router, %d retries, %d shed, %d kill / %d restart, 0 mismatches, 0 non-shed errors",
		d.report.Requests, d.report.Retries, d.report.Shed, d.report.Kills, d.report.Restarts)
	return 0
}
