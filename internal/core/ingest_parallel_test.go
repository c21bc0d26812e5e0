package core

import (
	"fmt"
	"reflect"
	"testing"

	"medrelax/internal/corpus"
	"medrelax/internal/eks"
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
	if s, p := serial.Graph.ShortcutCount(), parallel.Graph.ShortcutCount(); s != p {
		t.Errorf("ShortcutCount: %d serial vs %d parallel", s, p)
	}
	if !reflect.DeepEqual(serial.Frequencies.Snapshot(), parallel.Frequencies.Snapshot()) {
		t.Error("FrequencySnapshot differs")
	}
}

func TestIngestParallelEquivalenceFixture(t *testing.T) {
	// The paper-figure world, once per worker count: every ingestion must
	// be identical to the serial one, including over-subscribed pools.
	for _, workers := range []int{2, 4, 8, 32} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			serial := ingestWorld(t, IngestOptions{Parallelism: 1})
			parallel := ingestWorld(t, IngestOptions{Parallelism: workers})
			assertIngestionsEqual(t, serial, parallel)
		})
	}
}

// bigWorld builds a deterministic synthkb+medkb world grown to the target
// concept count. Each call regenerates from the seed, so serial and
// parallel runs get independent, identical graphs to mutate.
func bigWorld(t testing.TB, target int) (*medkb.MED, *eks.Graph, *corpus.Corpus) {
	t.Helper()
	w, err := synthkb.Generate(synthkb.Config{Seed: 42, ConditionsPerPair: 20})
	if err != nil {
		t.Fatal(err)
	}
	med, err := medkb.Generate(w, medkb.Config{Seed: 43, Drugs: 40})
	if err != nil {
		t.Fatal(err)
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
			med1, g1, corp1 := bigWorld(t, n)
			serial, err := Ingest(med1.Ontology, med1.Store, g1, corp1, exactMapper{g1}, IngestOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			med2, g2, corp2 := bigWorld(t, n)
			parallel, err := Ingest(med2.Ontology, med2.Store, g2, corp2, exactMapper{g2}, IngestOptions{Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			if serial.MappingCount() == 0 {
				t.Fatal("no instances mapped — the equivalence check would be vacuous")
			}
			assertIngestionsEqual(t, serial, parallel)
		})
	}
}

func TestIngestParallelismDefault(t *testing.T) {
	// Parallelism 0 (the default config everywhere) resolves to GOMAXPROCS
	// and must match the serial output too — this is the path the golden
	// test exercises end to end.
	serial := ingestWorld(t, IngestOptions{Parallelism: 1})
	deflt := ingestWorld(t, IngestOptions{})
	assertIngestionsEqual(t, serial, deflt)
}
