// Command kbrouter is the distributed serving tier: a shard router that
// fronts N kbserver replicas. Tenants and terms are placed on replicas by
// a consistent-hash ring (virtual nodes, deterministic rebalancing);
// GET /relax proxies to the owning replica, POST /relax/batch
// scatter-gathers across shards and merges outcomes byte-identical to a
// single-replica run. Active health probes plus passive failure marking
// route around dead replicas, with capped-jittered retries (a retry.Policy,
// honouring Retry-After) on the replica hop, and router-level admission sheds
// overload with 429 + Retry-After before any replica slot is spent.
//
// Endpoints:
//
//	GET  /healthz           router health + replica counts
//	GET  /stats             ring topology and per-replica health
//	GET  /metrics           router-labelled Prometheus metrics
//	GET  /relax?...         proxied to the owning replica
//	POST /relax/batch       scatter-gather across owning replicas
//	GET  /terms?n=N         proxied to any healthy replica
//	POST /chat              session-affine proxy (state lives on one replica)
//	POST /admin/reload      fan bundle reload to every replica
//
// Usage:
//
//	kbrouter -addr :9090 -replica 127.0.0.1:8081 -replica 127.0.0.1:8082
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"medrelax/internal/router"
	"medrelax/internal/trace"
)

func main() {
	var replicas []string
	opts := router.DefaultOptions()
	var (
		addr       = flag.String("addr", ":9090", "listen address")
		traceEvery = flag.Int("trace-sample", 128, "trace 1 in N requests arriving without a traceparent header (0 disables self-sampling; explicit sampled traceparent headers are always honored)")
	)
	flag.IntVar(&opts.VNodes, "vnodes", opts.VNodes, "virtual nodes per replica on the placement ring")
	flag.DurationVar(&opts.ProbeInterval, "probe-interval", opts.ProbeInterval, "active health probe period (0: passive marking only)")
	flag.DurationVar(&opts.ProbeTimeout, "probe-timeout", opts.ProbeTimeout, "per-probe deadline")
	flag.IntVar(&opts.FailAfter, "fail-after", opts.FailAfter, "consecutive failures before a replica is marked down")
	flag.IntVar(&opts.MaxConcurrent, "max-concurrent", opts.MaxConcurrent, "max concurrently routed /relax+/chat requests; excess sheds with 429 (0: unlimited)")
	flag.DurationVar(&opts.RetryAfter, "retry-after", opts.RetryAfter, "Retry-After hint on shed responses")
	flag.IntVar(&opts.Retry.MaxRetries, "retries", opts.Retry.MaxRetries, "max retries per proxied request on replica failure")
	flag.DurationVar(&opts.Retry.Base, "retry-base", opts.Retry.Base, "replica retry backoff base")
	flag.DurationVar(&opts.Retry.Cap, "retry-cap", opts.Retry.Cap, "replica retry backoff cap")
	flag.DurationVar(&opts.ShardTimeout, "shard-timeout", opts.ShardTimeout, "per-shard deadline for scatter-gather batches")
	flag.Func("replica", "host:port of one kbserver replica (repeatable)", func(v string) error {
		replicas = append(replicas, v)
		return nil
	})
	flag.Parse()
	if len(replicas) == 0 {
		log.Fatal("kbrouter: at least one -replica is required")
	}

	opts.Replicas = replicas
	opts.Tracer = trace.NewTracer("kbrouter", *traceEvery, trace.NewRecorder(256, 16))

	rt := router.New(opts)
	rt.Start()
	defer rt.Stop()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-shutdown
		log.Printf("kbrouter: %s — draining in-flight requests", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("kbrouter: shutdown: %v", err)
		}
	}()

	log.Printf("kbrouter listening on %s (replicas: %s)", *addr, strings.Join(replicas, ", "))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("kbrouter: %v", err)
	}
	<-done
	log.Print("kbrouter: shutdown complete")
}
