package core

import (
	"reflect"
	"sync"
	"testing"

	"medrelax/internal/ontology"
)

// TestConcurrentRelaxation hammers one shared Relaxer (and therefore one
// shared Similarity with its sharded subsumer cache and meet-scratch pool)
// from many goroutines, checking every goroutine sees exactly the results a
// serial run produces. Run under -race this is the concurrency-safety proof
// for the lock-free /relax serving path.
func TestConcurrentRelaxation(t *testing.T) {
	r, _ := newTestRelaxer(t, RelaxOptions{Radius: 4, DynamicRadius: true})
	ctxs := []*ontology.Context{
		nil,
		{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"},
		{Domain: "Risk", Relationship: "hasFinding", Range: "Finding"},
	}
	terms := []string{"headache", "fever", "bronchitis", "sore throat"}

	type key struct {
		term string
		ctx  int
	}
	want := map[key][]Result{}
	for ci, ctx := range ctxs {
		for _, term := range terms {
			res, err := r.RelaxTerm(term, ctx, 0)
			if err != nil {
				t.Fatalf("serial RelaxTerm(%q): %v", term, err)
			}
			want[key{term, ci}] = res
		}
	}

	const goroutines = 32
	const iterations = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				ci := (gi + it) % len(ctxs)
				term := terms[(gi*7+it)%len(terms)]
				got, err := r.RelaxTerm(term, ctxs[ci], 0)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[key{term, ci}]) {
					t.Errorf("goroutine %d: RelaxTerm(%q, ctx %d) diverged from serial result", gi, term, ci)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent RelaxTerm: %v", err)
	}
}

// TestConcurrentSimilaritySharedCache drives Sim directly from many
// goroutines over overlapping concept pairs so the sharded LRU exercises
// hits, misses, and evictions concurrently.
func TestConcurrentSimilaritySharedCache(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	ids := ing.Graph.ConceptIDs()

	// Serial reference for a deterministic subset of pairs.
	type pair struct{ a, b int }
	want := map[pair]float64{}
	for i := 0; i < len(ids); i++ {
		for j := 0; j < len(ids); j++ {
			want[pair{i, j}] = sim.Sim(ids[i], ids[j], nil)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g*13 + n) % len(ids)
				j := (g*5 + n*3) % len(ids)
				if got := sim.Sim(ids[i], ids[j], nil); got != want[pair{i, j}] {
					t.Errorf("Sim(%d,%d) = %v under concurrency, want %v", ids[i], ids[j], got, want[pair{i, j}])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParallelPrecomputeMatchesSerial asserts the worker-pool build of the
// Section 5.2 precomputation, MaterializeTopK, yields the columns a
// single-worker build does.
func TestParallelPrecomputeMatchesSerial(t *testing.T) {
	ing := generatedIngestion(t, 11, 2, 20, false, IngestOptions{})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	opts := MaterializeOptions{HeadFraction: 0.1, Contexts: ing.Contexts[:2]}
	opts.Workers = 1
	serial := MaterializeTopK(ing, sim, opts)
	opts.Workers = 8
	parallel := MaterializeTopK(ing, sim, opts)
	if serial.Concepts() < 8 {
		t.Fatalf("%d head concepts leave some of the 8 workers idle", serial.Concepts())
	}
	if !reflect.DeepEqual(serial.FlatData(), parallel.FlatData()) {
		t.Fatal("parallel MaterializeTopK columns differ from the serial build")
	}
}
