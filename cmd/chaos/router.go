package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"medrelax/internal/retry"
	"medrelax/internal/router"
	"medrelax/internal/serving"
	"medrelax/internal/trace"
)

// bootCluster boots the routed topology: three stacks at production serving
// defaults (admission and caches per replica, as in production) fronted by
// an in-process router tuned for fast failure detection, so the drill fits
// a CI-friendly wall clock.
func (h *harness) bootCluster() error {
	h.opts = serving.DefaultOptions()
	// Replicas join traces the router starts (no self-sampling), the split a
	// production fleet runs: sampling decisions live at the edge.
	h.opts.Tracer = trace.NewTracer("kbserver", 0, trace.NewRecorder(64, 8))
	h.tolerated = []int{http.StatusTooManyRequests, http.StatusServiceUnavailable}
	for range 3 {
		s, err := h.bootStack("127.0.0.1:0")
		if err != nil {
			return err
		}
		h.stacks = append(h.stacks, s)
		h.report.Replicas = append(h.report.Replicas, s.addr)
	}
	h.direct = h.stacks[0].url()

	opts := router.DefaultOptions()
	opts.Replicas = h.report.Replicas
	opts.ProbeInterval = 50 * time.Millisecond
	opts.ProbeTimeout = 150 * time.Millisecond
	opts.FailAfter = 2
	opts.Retry = retry.Policy{MaxRetries: 3, Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond}
	h.traceRec = trace.NewRecorder(64, 8)
	opts.Tracer = trace.NewTracer("kbrouter", 8, h.traceRec)
	h.rt = router.New(opts)
	h.rt.Start()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.routerSrv = &http.Server{Handler: h.recoverPanics(h.rt.Handler())}
	go h.routerSrv.Serve(lis)
	h.base = "http://" + lis.Addr().String()
	log.Printf("chaos: router %s fronting %v", h.base, h.report.Replicas)
	return nil
}

// victim is the replica the drill bounces; replica 0 supplies the golden
// captures.
const victim = 1

// clusterPhases is the routed cluster's schedule: steady state, then the
// victim killed mid-phase and restarted on its address while the traffic
// never pauses — failover and the active prober have to hide the bounce.
func (h *harness) clusterPhases() {
	h.trafficPhase("router-steady", "", h.phase, nil)
	h.trafficPhase("router-kill-restart", "", 3*h.phase, func(<-chan struct{}) { h.bounce() })
}

// bounce kills the victim half a phase in and waits for the prober to mark it
// unhealthy, then a phase later boots it again on its address and waits for
// the prober to restore it.
func (h *harness) bounce() {
	killed := h.stacks[victim]
	time.Sleep(h.phase / 2)
	log.Printf("chaos: killing replica %s", killed.addr)
	// Closing the listener and every open connection fails in-flight
	// requests at the router the way a SIGKILLed replica's would.
	killed.srv.Close()
	h.mu.Lock()
	h.report.Kills++
	h.mu.Unlock()
	if !h.awaitHealth(killed.addr, false, 2*time.Second) {
		h.violatef("killed replica %s never marked unhealthy", killed.addr)
	} else {
		log.Printf("chaos: replica %s marked unhealthy", killed.addr)
	}

	time.Sleep(h.phase)
	s, err := h.bootStack(killed.addr)
	if err != nil {
		h.violatef("restarting replica %s: %v", killed.addr, err)
		return
	}
	h.stacks[victim] = s
	h.mu.Lock()
	h.report.Restarts++
	h.mu.Unlock()
	if !h.awaitHealth(killed.addr, true, 5*time.Second) {
		h.violatef("restarted replica %s never marked healthy again", killed.addr)
	} else {
		log.Printf("chaos: replica %s restored", killed.addr)
	}
}

// awaitHealth polls the router until it holds addr healthy (or not, as
// want says) or timeout passes, and reports whether it got there.
func (h *harness) awaitHealth(addr string, want bool, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); h.rt.ReplicaHealthy(addr) != want && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	return h.rt.ReplicaHealthy(addr) == want
}

// clusterChecks holds the router's own metrics to the bounce — the victim
// transitioned unhealthy and back, and every replica is healthy again — and
// checks that tracing crosses the process boundary.
func (h *harness) clusterChecks() {
	body, status, err := get(h.client, h.base+"/metrics")
	if err != nil || status != http.StatusOK {
		h.violatef("final: GET /metrics: status %d, err %v", status, err)
		return
	}
	for _, to := range []string{"unhealthy", "healthy"} {
		want := fmt.Sprintf("kbrouter_health_transitions_total{replica=%q,to=%q}", h.report.Replicas[victim], to)
		if !bytes.Contains(body, []byte(want)) {
			h.violatef("final: metrics missing %s — the bounce was not observed", want)
		}
	}
	for _, addr := range h.report.Replicas {
		if !h.rt.ReplicaHealthy(addr) {
			h.violatef("final: replica %s not healthy at end of drill", addr)
		}
	}
	h.checkTracing()
}

// checkTracing drives one explicitly-traced scatter batch through the
// recovered cluster and requires the router's recorder to hold a trace
// whose spans cover both services — router admission and shard legs from
// kbrouter, cache/kernel spans back-hauled from the kbserver replicas.
func (h *harness) checkTracing() {
	header, traceID := trace.NewTraceparent()
	req, err := http.NewRequest(http.MethodPost, h.base+"/relax/batch", bytes.NewReader(h.batchBody))
	if err != nil {
		h.violatef("final: building traced batch request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.TraceparentHeader, header)
	resp, err := h.client.Do(req)
	if err != nil {
		h.violatef("final: traced batch request: %v", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.violatef("final: traced batch status %d", resp.StatusCode)
		return
	}

	traces, total := h.traceRec.Snapshot(false)
	h.report.Traces = total
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
			h.violatef("final: traced batch spans cover services %v, want kbrouter AND kbserver in one trace", services)
		case !names["router.admission"] || !names["router.shard"]:
			h.violatef("final: traced batch missing router spans (have %v)", names)
		case !names["serving.cache"] && !names["relax.kernel"]:
			// The batch terms may be cache-warm from the traffic phases, so
			// a kernel span is not guaranteed — but some replica-side span
			// (cache probe or kernel) must have been back-hauled.
			h.violatef("final: traced batch missing replica spans (have %v)", names)
		}
		return
	}
	h.violatef("final: trace %s not found in router recorder (%d traces held)", traceID, total)
}
