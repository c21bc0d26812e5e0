package medrelax

// Offline-phase performance benchmarks: Algorithm 1 ingestion serial vs
// parallel across world sizes, and the serving-start path over a flat
// bundle. The ledger's core.ingest_s, open_ms, persist.open_flat_ms and
// persist.open_allocs rows (bench/, offline_build) are the record at 100k.

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/engine"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/persist"
	"medrelax/internal/synthkb"
)

// benchWorld regenerates a deterministic synthkb+medkb world grown to the
// target EKS size. Ingestion mutates the graph (shortcut edges, freeze), so
// every measured iteration needs a fresh world.
func benchWorld(tb testing.TB, target int) (*medkb.MED, *eks.Graph, *corpus.Corpus) {
	tb.Helper()
	cpp := 1
	if target > 2000 {
		cpp = 20
	}
	w, err := synthkb.Generate(synthkb.Config{Seed: 42, ConditionsPerPair: cpp})
	if err != nil {
		tb.Fatal(err)
	}
	med, err := medkb.Generate(w, medkb.Config{Seed: 43, Drugs: 40})
	if err != nil {
		tb.Fatal(err)
	}
	corp := medkb.BuildCorpus(w, med, medkb.CorpusConfig{Seed: 44})
	g := w.Graph
	next := eks.ConceptID(1)
	for _, id := range g.ConceptIDs() {
		if id >= next {
			next = id + 1
		}
	}
	for i := 0; g.Len() < target; i++ {
		parent := w.Findings[i%len(w.Findings)]
		if err := g.AddConcept(eks.Concept{ID: next, Name: fmt.Sprintf("variant %d of %d", i, parent)}); err != nil {
			tb.Fatal(err)
		}
		if err := g.AddSubsumption(next, parent); err != nil {
			tb.Fatal(err)
		}
		next++
	}
	return med, g, corp
}

// BenchmarkIngest measures the full offline phase (Algorithm 1: mapping,
// frequency table, shortcut customization, dense-index freeze) serial vs
// parallel. World regeneration runs with the timer stopped.
func BenchmarkIngest(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					med, g, corp := benchWorld(b, n)
					mapper := match.NewExact(g)
					b.StartTimer()
					if _, err := core.Ingest(med.Ontology, med.Store, g, corp, mapper, core.IngestOptions{Parallelism: mode.workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkColdStart measures the from-file serving-start path over the v4
// flat bundle: flat-file is persist.LoadFile (header/CRC validation over an
// mmap, columns served in place) and its Close; flat-snapshot is what a
// server actually pays to open the bundle — engine.LoadSnapshot (load,
// serving validation, snapshot assembly over the adopted resolver, the probe
// query) and its Close. CI gates on the allocs/op of both.
func BenchmarkColdStart(b *testing.B) {
	med, g, corp := benchWorld(b, 10_000)
	ing, err := core.Ingest(med.Ontology, med.Store, g, corp, match.NewExact(g), core.IngestOptions{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "world.flat")
	if err := persist.SaveFileAtomic(path, ing, persist.FormatFlat); err != nil {
		b.Fatal(err)
	}
	b.Run("flat-file", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			restored, err := persist.LoadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if restored.Graph.Len() != ing.Graph.Len() {
				b.Fatalf("restored %d concepts, want %d", restored.Graph.Len(), ing.Graph.Len())
			}
			if err := restored.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flat-snapshot", func(b *testing.B) {
		log.SetOutput(io.Discard) // LoadSnapshot logs a line per open
		defer log.SetOutput(os.Stderr)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap, err := engine.LoadSnapshot(path)
			if err != nil {
				b.Fatal(err)
			}
			if err := snap.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
