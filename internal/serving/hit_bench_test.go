package serving

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/server"
	"medrelax/internal/synthkb"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a benchmark counts only what the handler stack allocates.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

// BenchmarkServeHit is a warm cache hit through every layer a kbserver
// request crosses above the cache — TenantServer.Handler, Engine.Handler's
// admission, deadline and metrics, the server's query parse and body
// encoding, and Engine.RelaxBatch's cache probe — over a small generated world
// at DefaultOptions, untraced. CI gates its allocs/op.
func BenchmarkServeHit(b *testing.B) {
	w, med, corp, err := medkb.GenerateWorld(7, synthkb.Config{ConditionsPerPair: 2}, medkb.Config{Drugs: 25})
	if err != nil {
		b.Fatal(err)
	}
	ing, err := core.Ingest(med.Ontology, med.Store, w.Graph, corp, match.NewExact(w.Graph), core.IngestOptions{})
	if err != nil {
		b.Fatal(err)
	}
	snap := engine.New(ing, engine.Config{})
	eng := NewEngine(snap, DefaultOptions())
	tenants := NewTenantServer()
	tenants.Add("default", eng, server.New(eng).Handler())
	h := tenants.Handler()

	var reqs []*http.Request
	for _, term := range snap.Terms(32) {
		for _, qctx := range []string{medkb.CtxIndicationFinding, medkb.CtxRiskFinding} {
			reqs = append(reqs, httptest.NewRequest(http.MethodGet,
				"/relax?term="+url.QueryEscape(term)+"&context="+url.QueryEscape(qctx)+"&k=10", nil))
		}
	}
	rw := &discardWriter{header: http.Header{}}
	for _, r := range reqs {
		if h.ServeHTTP(rw, r); rw.status != http.StatusOK {
			b.Fatalf("warm-up %s: status %d", r.URL, rw.status)
		}
	}
	_, misses, _, _ := eng.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(rw, reqs[i%len(reqs)])
	}
	b.StopTimer()
	if _, after, _, _ := eng.CacheStats(); after != misses || rw.status != http.StatusOK {
		b.Fatalf("%d misses after warm-up (status %d): the benchmark left the hit path", after-misses, rw.status)
	}
}
