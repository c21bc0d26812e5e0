package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"medrelax"
	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/persist"
	"medrelax/internal/server"
)

const (
	worldTrials   = 5  // world generations per run; setup_s is their median, the build takes the last
	bundleOpens   = 20 // engine.LoadSnapshot calls per run; open_ms is their median
	offlineChecks = 64 // requests answered from the reopened bundle and checked against the live traversal
)

// runOffline is the offline_build workload: the write side of the layers
// the serving workloads read. It generates the w100k world (set-up), then
// measures core.Ingest → core.MaterializeTopK → persist.SaveFileAtomic and
// repeated engine.LoadSnapshot opens of the file. One operation is one
// materialized answer built, persisted and servable again; the latency
// metrics are the opens.
func runOffline(ws *workspace, traced bool) (map[string]float64, result, error) {
	// The host probe is read around every stage and before every open; all
	// times below are reported on the reference host.
	probe := newHostProbe(connections())
	// Set-up is a fifth of a second, so one stall of the host is all of it:
	// it is done worldTrials times and the median reported.
	var gen *generated
	var setups []float64
	for len(setups) < worldTrials {
		probe.read()
		start := time.Now()
		var err error
		if gen, err = generateW100k(); err != nil {
			return nil, result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setup := median(setups)

	bundle := ws.path("offline_build.flat")
	defer os.Remove(bundle)
	// A collection before every stage keeps the garbage of the stage before
	// — and of the worlds generated above — out of this one's peak: without
	// it peak_rss_mb spread by 8–9 % from run to run, with it by 3 %.
	between := func() {
		probe.read()
		runtime.GC()
	}
	between()
	b, err := ingestW100k(gen, bundle, between)
	if err != nil {
		return nil, result{}, err
	}
	buildSeconds := (b.ingest + b.materialize + b.save).Seconds()

	var opens []float64
	var openAllocs uint64
	for len(opens) < bundleOpens {
		probe.read()
		allocs0, start := mallocs(), time.Now()
		snap, err := engine.LoadSnapshot(bundle)
		if err != nil {
			return nil, result{}, err
		}
		opens = append(opens, ms(time.Since(start)))
		openAllocs += mallocs() - allocs0
		if err := snap.Close(); err != nil {
			return nil, result{}, err
		}
	}
	openMs := median(opens)

	mismatched, err := verifyBundle(b.ingestion, bundle)
	if err != nil {
		return nil, result{}, err
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, result{}, err
	}
	res := result{Correct: mismatched == 0, Attempted: b.entries, Failed: mismatched}

	// Building w100k is this workload, so a checkout whose cache has none
	// takes this one instead of building it a second time.
	if !ws.fresh("w100k.flat") {
		if err := os.Rename(bundle, ws.path("w100k.flat")); err != nil {
			return nil, result{}, err
		}
		if err := ws.markFresh("w100k.flat"); err != nil {
			return nil, result{}, err
		}
	}

	slow := probe.slowdown()
	logf("%s: host %.3f times slower than the reference (%d probe readings); as the wall clock read it: set-up %.3f s, build %.3f s, open %.3f ms",
		offlineWorkload, slow, len(probe.readings), setup, buildSeconds, openMs)
	if !traced {
		return map[string]float64{
			"setup_s":          setup / slow,
			"p50_ms":           openMs / slow,
			"throughput_qps":   float64(b.entries) / buildSeconds * slow,
			"cpu_ms_per_query": ms(b.buildCPU) / float64(b.entries) / slow,
			"peak_rss_mb":      rss,
			"bundle_mb":        float64(b.bundleBytes) / (1 << 20),
		}, res, nil
	}

	values := map[string]float64{
		"build_s":                        buildSeconds,
		"open_ms":                        openMs,
		"synthkb.generate_s":             gen.synthGen.Seconds(),
		"medkb.generate_s":               gen.medGen.Seconds(),
		"core.ingest_s":                  b.ingest.Seconds(),
		"core.ingest_cpu_s":              b.ingestCPU.Seconds(),
		"core.ingest_allocs":             float64(b.ingestAllocs),
		"core.shortcuts_added":           float64(b.shortcuts),
		"core.materialize_s":             b.materialize.Seconds(),
		"core.materialized_entries":      float64(b.entries),
		"persist.save_flat_s":            b.save.Seconds(),
		"persist.flat_bytes_per_concept": float64(b.bundleBytes) / float64(b.concepts),
		"persist.open_allocs":            float64(openAllocs) / float64(len(opens)),
		"error_share":                    float64(mismatched) / float64(b.entries),
	}
	if err := openBreakdown(ws.path("w100k.flat"), values); err != nil {
		return nil, result{}, err
	}
	if err := indexCost(values); err != nil {
		return nil, result{}, err
	}
	for _, name := range offlineTimes {
		values[name] /= slow
	}
	values["host.slowdown"] = slow
	return values, res, nil
}

// offlineTimes are the traced offline metrics that are times.
var offlineTimes = []string{"build_s", "open_ms", "synthkb.generate_s", "medkb.generate_s", "core.ingest_s", "core.ingest_cpu_s",
	"core.materialize_s", "persist.save_flat_s", "persist.open_flat_ms", "persist.validate_ms", "engine.new_ms", "core.index_s"}

// verifyBundle answers the head of a long-tail stream twice — from the
// bundle reopened off disk, accelerators attached, and from the in-memory
// ingestion by live traversal — and counts bodies that differ.
func verifyBundle(ing *core.Ingestion, bundle string) (int, error) {
	snap, err := engine.LoadSnapshot(bundle)
	if err != nil {
		return 0, err
	}
	defer snap.Close()
	reqs := firstDistinct(longtailStream(1, rankedTerms(ing), contextChoices(ing), 4*offlineChecks), offlineChecks)
	refs := referenceBodies(ing, reqs)
	h := server.New(snap).Handler()
	mismatched := 0
	for _, r := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.path(), nil))
		if ref := refs[r.key()]; rec.Code != ref.status || !bytes.Equal(rec.Body.Bytes(), ref.body) {
			mismatched++
		}
	}
	return mismatched, nil
}

// openBreakdown splits engine.LoadSnapshot into its stages on the w100k
// bundle: map and validate the file, check it is servable, freeze and
// assemble the engine.
func openBreakdown(bundle string, values map[string]float64) error {
	const trials = 5
	var load, validate, assemble []float64
	var mapped float64
	for i := 0; i < trials; i++ {
		runtime.GC()
		rss0, err := vmRSS()
		if err != nil {
			return err
		}
		start := time.Now()
		ing, err := persist.LoadFile(bundle)
		if err != nil {
			return err
		}
		load = append(load, ms(time.Since(start)))
		start = time.Now()
		if err := persist.ValidateForServing(ing); err != nil {
			return err
		}
		validate = append(validate, ms(time.Since(start)))
		start = time.Now()
		snap := engine.New(ing, engine.Config{Source: bundle})
		assemble = append(assemble, ms(time.Since(start)))
		rss1, err := vmRSS()
		if err != nil {
			return err
		}
		mapped = max(mapped, rss1-rss0)
		if err := snap.Close(); err != nil {
			return err
		}
	}
	values["persist.open_flat_ms"] = median(load)
	values["persist.validate_ms"] = median(validate)
	values["engine.new_ms"] = median(assemble)
	values["persist.mapped_rss_mb"] = mapped
	return nil
}

// indexCost builds the candidate index where it can be built — the plain w2k
// world, at the serving radius the CLI's -index picks — and records what it
// costs; at w100k it is 65 M postings and does not fit in memory.
func indexCost(values map[string]float64) error {
	cfg := w2kConfig(false)
	sys, err := medrelax.Build(cfg)
	if err != nil {
		return err
	}
	ing := sys.Ingestion
	sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	start := time.Now()
	idx := core.BuildCandidateIndex(ing, sim, core.CandidateIndexOptions{Radius: cfg.Relax.MaxRadius})
	values["core.index_s"] = time.Since(start).Seconds()
	values["core.index_postings"] = float64(idx.Postings())
	return nil
}

// vmRSS is this process's current resident set in MB.
func vmRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0, err
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}
