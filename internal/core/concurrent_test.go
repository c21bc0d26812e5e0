package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"medrelax/internal/eks"
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
	ing := sharedIngestion(t, 11, 2, 20, false, 0, IngestOptions{})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	opts := MaterializeOptions{HeadFraction: 0.1, Contexts: ing.Contexts[:2]}
	serial := underProcs(1, func() *Materialized { return MaterializeTopK(ing, sim, opts) })
	parallel := underProcs(8, func() *Materialized { return MaterializeTopK(ing, sim, opts) })
	if serial.Concepts() < 8 {
		t.Fatalf("%d head concepts leave some of the 8 workers idle", serial.Concepts())
	}
	if !reflect.DeepEqual(serial.FlatData(), parallel.FlatData()) {
		t.Fatal("parallel MaterializeTopK columns differ from the serial build")
	}
}

// TestFirstFlaggedWalksShareOneSkeleton starts many flagged walks at once on
// an ingestion whose skeleton is not derived yet: under -race this is the
// proof that the derivation behind sync.Once publishes one skeleton safely,
// and every walk, first or not, reports and enters what a serial walk does.
func TestFirstFlaggedWalksShareOneSkeleton(t *testing.T) {
	shared := oracleWorlds(t)["seed5"]
	walk := func(ing *Ingestion, q eks.ConceptID) (hits []int32, entered int) {
		f, _ := ing.flaggedFrontier(q)
		defer f.Close()
		for last := -1; f.Reached() != last; {
			last = f.Reached()
			hits = append(hits, f.Advance()...)
		}
		return hits, f.Reached()
	}
	qs := shared.FlaggedIDs()[:8]
	type outcome struct {
		hits    []int32
		entered int
	}
	want := make([]outcome, len(qs))
	for i, q := range qs {
		want[i].hits, want[i].entered = walk(shared, q)
	}
	ing := *shared
	ing.walk = &flaggedWalk{}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(qs))
	for g := 0; g < 4; g++ {
		for i, q := range qs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if hits, entered := walk(&ing, q); !slices.Equal(hits, want[i].hits) || entered != want[i].entered {
					errs <- fmt.Sprintf("concept %d: %d hits entering %d nodes, serially %d entering %d", q, len(hits), entered, len(want[i].hits), want[i].entered)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if ing.walk.skel == nil {
		t.Fatal("the walks derived no skeleton")
	}
}
