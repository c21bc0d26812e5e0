package medrelax

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"net"

	"medrelax/internal/eval"
	"medrelax/internal/retry"
	"medrelax/internal/router"
	"medrelax/internal/server"
	"medrelax/internal/serving"
)

// bootReplicas starts n full serving stacks (serving.Engine + API server)
// over the shared system snapshot — the same wiring cmd/kbserver uses —
// and returns their addresses plus a closer.
func bootReplicas(t *testing.T, sys *System, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		opts := serving.DefaultOptions()
		eng := serving.NewEngine(sys.Engine, opts)
		srv := httptest.NewServer(eng.Handler(server.New(eng).Handler()))
		t.Cleanup(srv.Close)
		addrs[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	return addrs
}

func bootRouter(t *testing.T, replicas []string) *router.Router {
	t.Helper()
	opts := router.DefaultOptions()
	opts.Replicas = replicas
	opts.ProbeInterval = 50 * time.Millisecond
	opts.Retry = retry.Policy{MaxRetries: 2, Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond}
	rt := router.New(opts)
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

func httpGet(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func httpPost(t *testing.T, base, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, respBody
}

// TestRouterByteIdentity is the distributed tier's core contract, pinned
// end to end over real serving stacks: a GET /relax answered through
// kbrouter and a POST /relax/batch scattered across three replicas must
// be byte-identical to the same requests against a single replica. The
// replicas serve the same snapshot the golden file
// (testdata/relax_golden.json) pins, so transitively the routed answers
// are pinned too.
func TestRouterByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four HTTP stacks")
	}
	sys := sharedSystem(t)
	replicas := bootReplicas(t, sys, 3)
	rt := bootRouter(t, replicas)
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()
	direct := "http://" + replicas[0]

	queries := eval.SelectQueries(sys.Med, sys.Oracle, 25)
	if len(queries) == 0 {
		t.Fatal("no golden queries selected")
	}

	// Single-query proxy path.
	for _, q := range queries {
		v := url.Values{"term": {q.Term}, "k": {"10"}}
		if q.Ctx != nil {
			v.Set("context", q.Ctx.String())
		}
		path := "/relax?" + v.Encode()
		dStatus, dBody := httpGet(t, direct, path)
		rStatus, rBody := httpGet(t, routerSrv.URL, path)
		if dStatus != rStatus {
			t.Fatalf("term %q: status %d via router, %d direct", q.Term, rStatus, dStatus)
		}
		if !bytes.Equal(dBody, rBody) {
			t.Fatalf("term %q: routed response diverged from single-replica bytes:\n direct: %s\n router: %s",
				q.Term, dBody, rBody)
		}
	}

	// Scatter-gather path: one batch covering every golden query, plus
	// invalid items so per-item error shapes cross the router too.
	type item struct {
		Term    string `json:"term"`
		Context string `json:"context,omitempty"`
		K       int    `json:"k,omitempty"`
	}
	items := make([]item, 0, len(queries)+2)
	for _, q := range queries {
		it := item{Term: q.Term, K: 10}
		if q.Ctx != nil {
			it.Context = q.Ctx.String()
		}
		items = append(items, it)
	}
	items = append(items,
		item{Term: "definitely-not-a-term-xyzzy", K: 5},
		item{Term: queries[0].Term, K: 5000}, // per-item 400
	)
	body, err := json.Marshal(map[string]any{"queries": items})
	if err != nil {
		t.Fatal(err)
	}
	dStatus, dBody := httpPost(t, direct, "/relax/batch", body)
	rStatus, rBody := httpPost(t, routerSrv.URL, "/relax/batch", body)
	if dStatus != http.StatusOK || rStatus != http.StatusOK {
		t.Fatalf("batch status: direct %d, router %d", dStatus, rStatus)
	}
	if !bytes.Equal(dBody, rBody) {
		t.Fatalf("scatter-gather batch diverged from single-replica bytes:\n direct: %s\n router: %s", dBody, rBody)
	}

	// The scatter actually spread: more than one replica saw traffic.
	mStatus, scrape := httpGet(t, routerSrv.URL, "/metrics")
	if mStatus != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", mStatus)
	}
	hit := 0
	for _, rep := range replicas {
		if strings.Contains(string(scrape), fmt.Sprintf("kbrouter_replica_requests_total{replica=%q}", rep)) {
			hit++
		}
	}
	if hit < 2 {
		t.Errorf("only %d replicas saw traffic; placement is not spreading", hit)
	}
}

// TestRouterKillRecovery kills one live replica under the router and
// requires every subsequent request to succeed (failover), with the
// replica marked down and then recovered after restart on the same
// address — the in-process version of the chaos harness's replica-kill
// drill.
func TestRouterKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four HTTP stacks")
	}
	sys := sharedSystem(t)

	// Hand-build replicas so one can be killed and rebound on its address.
	servers := make([]*httptest.Server, 3)
	addrs := make([]string, 3)
	mkHandler := func() http.Handler {
		eng := serving.NewEngine(sys.Engine, serving.DefaultOptions())
		return eng.Handler(server.New(eng).Handler())
	}
	for i := range servers {
		servers[i] = httptest.NewServer(mkHandler())
		addrs[i] = strings.TrimPrefix(servers[i].URL, "http://")
		defer servers[i].Close()
	}
	opts := router.DefaultOptions()
	opts.Replicas = addrs
	opts.ProbeInterval = 20 * time.Millisecond
	opts.ProbeTimeout = 100 * time.Millisecond
	opts.FailAfter = 1
	opts.Retry = retry.Policy{MaxRetries: 2, Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond}
	rt := router.New(opts)
	rt.Start()
	defer rt.Stop()
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	queries := eval.SelectQueries(sys.Med, sys.Oracle, 10)
	ask := func(phase string) {
		for _, q := range queries {
			v := url.Values{"term": {q.Term}, "k": {"10"}}
			status, body := httpGet(t, routerSrv.URL, "/relax?"+v.Encode())
			if status != http.StatusOK {
				t.Fatalf("%s: term %q: status %d: %s", phase, q.Term, status, body)
			}
		}
	}
	ask("before kill")

	victim := servers[1]
	victimAddr := addrs[1]
	victim.CloseClientConnections()
	victim.Close()
	ask("after kill") // failover must hide the dead replica

	deadline := time.Now().Add(2 * time.Second)
	for rt.ReplicaHealthy(victimAddr) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if rt.ReplicaHealthy(victimAddr) {
		t.Fatal("killed replica never marked unhealthy")
	}

	// Restart on the same address (the chaos drill's rebind) and require
	// the active probe to restore it.
	lis, err := rebindListener(victimAddr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", victimAddr, err)
	}
	restarted := &http.Server{Handler: mkHandler()}
	go restarted.Serve(lis)
	defer restarted.Close()

	deadline = time.Now().Add(5 * time.Second)
	for !rt.ReplicaHealthy(victimAddr) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !rt.ReplicaHealthy(victimAddr) {
		t.Fatal("restarted replica never marked healthy again")
	}
	ask("after recovery")
}

// rebindListener reclaims a just-freed address for the restart phase; the
// OS may briefly hold the port, so bind with a short retry.
func rebindListener(addr string) (net.Listener, error) {
	var lastErr error
	for i := 0; i < 50; i++ {
		lis, err := net.Listen("tcp", addr)
		if err == nil {
			return lis, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, lastErr
}
