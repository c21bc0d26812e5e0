package medrelax

// Offline-phase performance benchmarks: Algorithm 1 ingestion serial vs
// parallel (GOMAXPROCS 1 vs the host's) across world sizes, and the
// serving-start path over a flat bundle. The ledger's core.ingest_s, open_ms,
// persist.open_flat_ms and persist.open_allocs rows (bench/, offline_build)
// are the record at 100k.

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
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
	w, med, corp, err := medkb.GenerateWorld(42, synthkb.Config{ConditionsPerPair: cpp}, medkb.Config{Drugs: 40})
	if err != nil {
		tb.Fatal(err)
	}
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
// frequency table, shortcut customization, dense-index freeze) serial
// (GOMAXPROCS 1) vs parallel (the host's GOMAXPROCS, which 0 leaves as is).
// World regeneration runs with the timer stopped.
func BenchmarkIngest(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, mode := range []struct {
			name  string
			procs int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode.name), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(mode.procs))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					med, g, corp := benchWorld(b, n)
					mapper := match.NewExact(g)
					b.StartTimer()
					if _, err := core.Ingest(med.Ontology, med.Store, g, corp, mapper, core.IngestOptions{}); err != nil {
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

// BenchmarkDialogue measures a generation's first /chat derivation:
// Snapshot.Dialogue (the intent classifier, the mention extractor and the
// repair relaxer) on a fresh, untimed engine.LoadSnapshot of a w100k-shaped
// bundle. live-B/op is the heap the derived dialogue keeps after a GC; the
// extractor reads the bundle's key columns in place, so it adds nothing that
// grows with the lexicon.
func BenchmarkDialogue(b *testing.B) {
	path := filepath.Join(b.TempDir(), "w100k.flat")
	func() {
		med, g, corp := benchWorld(b, 100_000)
		ing, err := core.Ingest(med.Ontology, med.Store, g, corp, match.NewExact(g), core.IngestOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := persist.SaveFileAtomic(path, ing, persist.FormatFlat); err != nil {
			b.Fatal(err)
		}
	}()
	log.SetOutput(io.Discard) // LoadSnapshot logs a line per open
	defer log.SetOutput(os.Stderr)
	// Two collections: the first queues the finalizers of what the last
	// open and close dropped, the second frees what they held.
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	live := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snap, err := engine.LoadSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		before := heap()
		b.StartTimer()
		if _, err := snap.Dialogue(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		live += heap() - before
		if err := snap.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(live)/float64(b.N), "live-B/op")
}
