package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/synthkb"
)

// assertIngestionsEqual checks the equivalence contract of the parallel
// offline phase: identical mappings, flag set, shortcut edges, and
// frequency table, element for element.
func assertIngestionsEqual(t *testing.T, serial, parallel *Ingestion) {
	t.Helper()
	if !reflect.DeepEqual(serial.FlatMappings(), parallel.FlatMappings()) {
		t.Errorf("mappings differ: %d serial vs %d parallel pairs", serial.MappingCount(), parallel.MappingCount())
	}
	if serial.ShortcutsAdded != parallel.ShortcutsAdded {
		t.Errorf("ShortcutsAdded: %d serial vs %d parallel", serial.ShortcutsAdded, parallel.ShortcutsAdded)
	}
	if s, p := serial.Graph.EdgeCount(), parallel.Graph.EdgeCount(); s != p {
		t.Errorf("EdgeCount: %d serial vs %d parallel", s, p)
	}
	if !reflect.DeepEqual(serial.Graph.FlatData(), parallel.Graph.FlatData()) {
		t.Error("graph columns differ")
	}
	if !reflect.DeepEqual(serial.Frequencies.FlatData(), parallel.Frequencies.FlatData()) {
		t.Error("frequency columns differ")
	}
}

// underProcs runs f with GOMAXPROCS at n: the worker count every offline
// build fans out to.
func underProcs[T any](n int, f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

func TestIngestParallelEquivalenceFixture(t *testing.T) {
	// The paper-figure world, once per worker count: every ingestion must
	// be identical to the serial one, including over-subscribed pools.
	for _, workers := range []int{2, 4, 8, 32} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			serial := underProcs(1, func() *Ingestion { return ingestWorld(t, IngestOptions{}) })
			parallel := underProcs(workers, func() *Ingestion { return ingestWorld(t, IngestOptions{}) })
			assertIngestionsEqual(t, serial, parallel)
		})
	}
}

// bigWorld builds a deterministic synthkb+medkb world grown to the target
// concept count. Each call regenerates from the seed, so serial and
// parallel runs get independent, identical graphs to mutate.
func bigWorld(t testing.TB, target int) (*medkb.MED, *eks.Graph, *corpus.Corpus) {
	t.Helper()
	w, med, corp, err := medkb.GenerateWorld(42, synthkb.Config{ConditionsPerPair: 20}, medkb.Config{Drugs: 40}, medkb.CorpusConfig{})
	if err != nil {
		t.Fatal(err)
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
			t.Fatal(err)
		}
		if err := g.AddSubsumption(next, parent); err != nil {
			t.Fatal(err)
		}
		next++
	}
	return med, g, corp
}

func TestIngestParallelEquivalenceSynthKB(t *testing.T) {
	sizes := []int{10_000}
	if !testing.Short() {
		sizes = append(sizes, 100_000)
	}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ingest := func() *Ingestion {
				med, g, corp := bigWorld(t, n)
				ing, err := Ingest(med.Ontology, med.Store, g, corp, match.NewExact(g), IngestOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return ing
			}
			serial, parallel := underProcs(1, ingest), underProcs(8, ingest)
			if serial.MappingCount() == 0 {
				t.Fatal("no instances mapped — the equivalence check would be vacuous")
			}
			assertIngestionsEqual(t, serial, parallel)
		})
	}
}

func TestIngestParallelismDefault(t *testing.T) {
	// The process's own GOMAXPROCS — the path every caller and the golden
	// test take — must match the serial output too.
	serial := underProcs(1, func() *Ingestion { return ingestWorld(t, IngestOptions{}) })
	deflt := ingestWorld(t, IngestOptions{})
	assertIngestionsEqual(t, serial, deflt)
}
