// Command kbserver exposes the query relaxation system over HTTP with a
// small JSON API, the way the paper's method was deployed as a cloud
// service interacting with the conversational frontend. The serving layer
// (internal/serving) adds a result cache, admission control, hot bundle
// reload, and Prometheus-format metrics; the engine layer
// (internal/engine) supplies the immutable snapshots being served.
//
// Endpoints:
//
//	GET  /healthz                           liveness probe
//	GET  /stats                             world, ingestion, and serving statistics
//	GET  /relax?term=X&context=C&k=N        ranked relaxed results (cached)
//	GET  /relax?...&explain=true            ... with per-result relaxation paths
//	                                        (subsumer chain, edge directions and
//	                                        distances, Eq. 4 weight, source EKS);
//	                                        cached under a separate key so plain
//	                                        responses stay byte-identical
//	POST /relax/batch {"queries":[...]}     many relax queries in one request
//	                                        (?explain=true applies to all items)
//	GET  /terms?n=N                         sample of relaxable query terms
//	POST /chat {"session":"s1","text":"…"}  stateful conversation turn
//	GET  /metrics                           Prometheus text exposition (all tenants)
//	POST /admin/reload                      reload this tenant's bundle and swap atomically
//
// Multi-tenant serving: repeat -bundle name=path to serve several bundles
// from one process. Each tenant gets its own cache partition, reload, and
// tenant-labelled metrics; route with /t/{name}/... or the
// X-Medrelax-Tenant header (bare paths hit the first-listed tenant).
//
// SIGHUP reloads every reloadable tenant; SIGINT/SIGTERM drain in-flight
// requests and exit.
//
// Usage:
//
//	kbserver -addr :8080 -seed 42
//	kbserver -addr :8080 -load bundle.bin
//	kbserver -addr :8080 -bundle alpha=a.bin -bundle beta=b.bin
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"medrelax"
	"medrelax/internal/engine"
	"medrelax/internal/fault"
	"medrelax/internal/server"
	"medrelax/internal/serving"
	"medrelax/internal/serving/metrics"
	"medrelax/internal/trace"
)

// tenantSpec is one -bundle name=path mount.
type tenantSpec struct {
	name, path string
}

func main() {
	var bundles []tenantSpec
	var (
		addr = flag.String("addr", ":8080", "listen address")
		seed = flag.Int64("seed", 42, "generation seed")
		load = flag.String("load", "", "serve from a saved ingestion bundle instead of rebuilding the world (disables /chat, enables /admin/reload)")

		cacheSize  = flag.Int("cache-size", 16384, "result cache capacity in entries, per tenant (0 disables caching)")
		cacheTTL   = flag.Duration("cache-ttl", 5*time.Minute, "result cache entry TTL (0: LRU/reload eviction only)")
		cacheStale = flag.Duration("cache-stale", time.Minute, "serve entries expired less than this long ago when recomputation fails (0: disabled)")
		maxConc    = flag.Int("max-concurrent", 256, "max concurrently admitted /relax+/chat requests, per tenant; excess sheds with 429 (0: unlimited)")
		relaxTO    = flag.Duration("relax-timeout", 2*time.Second, "per-request /relax deadline (0: none)")
		chatTO     = flag.Duration("chat-timeout", 5*time.Second, "per-request /chat deadline (0: none)")
		chatRPS    = flag.Float64("chat-rps", 200, "global /chat rate limit in requests/second (0: unlimited)")
		slowQ      = flag.Duration("slow-query", 500*time.Millisecond, "slow-query log threshold (0: disabled)")
		traceEvery = flag.Int("trace-sample", 128, "trace 1 in N requests arriving without a traceparent header (0 disables self-sampling; explicit sampled traceparent headers are always honored)")
		faults     = flag.String("faults", "", "fault-injection spec (see internal/fault); overrides $"+fault.EnvVar)
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this separate address, e.g. 127.0.0.1:6060 (empty: disabled)")
	)
	flag.Func("bundle", "name=path: serve this bundle as tenant NAME (repeatable; first is the default tenant)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		bundles = append(bundles, tenantSpec{name: name, path: path})
		return nil
	})
	flag.Parse()

	// Fault injection: explicit flag wins, otherwise the environment. Off
	// (the default) costs one atomic load per armed call site.
	if *faults != "" {
		reg, err := fault.Parse(*faults)
		if err != nil {
			log.Fatalf("kbserver: -faults: %v", err)
		}
		fault.SetDefault(reg)
	} else if _, err := fault.FromEnv(); err != nil {
		log.Fatalf("kbserver: $%s: %v", fault.EnvVar, err)
	}
	if armed := fault.Default().Names(); len(armed) > 0 {
		log.Printf("kbserver: FAULT INJECTION ARMED at sites %v", armed)
	}
	if len(bundles) > 0 && *load != "" {
		log.Fatal("kbserver: -load and -bundle are mutually exclusive; use -bundle default=path")
	}

	opts := serving.DefaultOptions()
	opts.CacheCapacity = *cacheSize
	opts.CacheTTL = *cacheTTL
	opts.CacheStaleWindow = *cacheStale
	opts.MaxConcurrent = *maxConc
	opts.RelaxTimeout = *relaxTO
	opts.ChatTimeout = *chatTO
	opts.ChatRPS = *chatRPS
	opts.SlowQuery = *slowQ
	// One tracer (and one /debug/traces ring) per process; tenants are
	// distinguished by the tenant tag on their spans.
	opts.Tracer = trace.NewTracer("kbserver", *traceEvery, trace.NewRecorder(256, 16))

	// Every deployment shape mounts through the tenant router; the
	// single-tenant shapes just register one unlabelled tenant, so bare
	// paths and series names look exactly like they always did.
	tenants := serving.NewTenantServer()
	labelled := len(bundles) > 0
	if *load != "" {
		bundles = []tenantSpec{{name: "default", path: *load}}
	}
	if len(bundles) > 0 {
		// One engine, cache partition and reload per bundle. Tenants named by
		// -bundle carry a tenant label on their series, over one shared metrics
		// registry so a single scrape covers the fleet.
		shared := metrics.NewRegistry()
		for _, spec := range bundles {
			if _, dup := tenants.Engine(spec.name); dup {
				log.Fatalf("kbserver: duplicate tenant %q", spec.name)
			}
			snap, err := engine.LoadSnapshot(spec.path)
			if err != nil {
				log.Fatalf("kbserver: tenant %q: %v", spec.name, err)
			}
			o := opts
			if labelled {
				o.Metrics = shared
				o.BaseLabels = metrics.Label("tenant", spec.name)
				o.Tenant = spec.name
			}
			o.Loader = func() (server.Backend, error) {
				fresh, err := engine.LoadSnapshot(spec.path)
				if err != nil {
					return nil, err
				}
				return fresh, nil
			}
			eng := serving.NewEngine(snap, o)
			tenants.Add(spec.name, eng, server.New(eng).Handler())
			log.Printf("kbserver: tenant %q serving %s", spec.name, spec.path)
		}
	} else {
		cfg := medrelax.DefaultConfig()
		cfg.Seed = *seed
		log.Print("building synthetic world and running ingestion ...")
		buildStart := time.Now()
		sys, err := medrelax.Build(cfg)
		if err != nil {
			log.Fatalf("kbserver: %v", err)
		}
		tm := sys.Timings
		log.Printf("world ready in %s (worldgen %s, embeddings %s, ingest %s)",
			time.Since(buildStart).Round(time.Millisecond), tm.WorldGen.Round(time.Millisecond),
			tm.Embeddings.Round(time.Millisecond), tm.Ingest.Round(time.Millisecond))
		eng := serving.NewEngine(sys.Engine, opts)
		tenants.Add("default", eng, server.New(eng).Handler())
	}

	// Profiling stays off the API address: pprof binds its own listener,
	// only when asked, so the public surface never exposes the debug
	// endpoints by accident.
	if *pprofAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("kbserver: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("kbserver: pprof server: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           tenants.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// SIGHUP reloads every reloadable tenant in place; SIGINT/SIGTERM
	// drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			for _, name := range tenants.Names() {
				eng, _ := tenants.Engine(name)
				log.Printf("kbserver: SIGHUP — reloading tenant %q", name)
				if err := eng.Reload(); err != nil {
					log.Printf("kbserver: tenant %q reload failed, keeping current bundle: %v", name, err)
				}
			}
		}
	}()

	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-shutdown
		log.Printf("kbserver: %s — draining in-flight requests", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("kbserver: shutdown: %v", err)
		}
	}()

	log.Printf("kbserver listening on %s (tenants: %s)", *addr, strings.Join(tenants.Names(), ", "))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("kbserver: %v", err)
	}
	<-done
	log.Print("kbserver: shutdown complete")
}
