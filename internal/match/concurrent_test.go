package match

import (
	"fmt"
	"sync"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/synthkb"
)

// TestCombinedConcurrentMap hammers one shared Combined mapper — the exact
// composition the parallel offline phase and the server share — from many
// goroutines under the race detector, pinning the Mapper concurrency
// contract: read-only after construction, identical answers under
// contention.
func TestCombinedConcurrentMap(t *testing.T) {
	g := lexGraph(t)
	enc := trainEncoder(t, g)
	m := NewCombined(NewEdit(g, 0), NewEmbedding(g, enc, 0))

	// Query mix: exact hits, synonym hits, typos (edit path), phrases
	// (embedding path), and misses.
	queries := []string{
		"fever", "pyrexia", "feverr", "headache", "cephalalgia",
		"kidney disease", "nephropath", "whooping cough", "bronchitis",
		"pertussis", "no such concept at all", "",
	}
	type answer struct {
		id eks.ConceptID
		ok bool
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		want[i].id, want[i].ok = m.Map(q)
	}

	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (i + w) % len(queries)
				id, ok := m.Map(queries[qi])
				if id != want[qi].id || ok != want[qi].ok {
					select {
					case errs <- fmt.Errorf("goroutine %d: Map(%q) = %d,%v want %d,%v", w, queries[qi], id, ok, want[qi].id, want[qi].ok):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEditDerivesSignaturesOnce sends typos from 8 goroutines at once into
// one fresh Edit whose key signatures no call has derived yet: under the race
// detector the first misses race to derive them, and every answer is the
// unfiltered scan's.
func TestEditDerivesSignaturesOnce(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := NewEdit(w.Graph, 0)
	queries := misspellings(w.Graph)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := range queries {
				q := queries[(i+w*len(queries)/8)%len(queries)]
				id, ok := m.Map(q)
				if wid, wok := legacyEditMap(m, q); id != wid || ok != wok {
					errs <- fmt.Errorf("goroutine %d: Map(%q) = %d, %v; the unfiltered scan says %d, %v", w, q, id, ok, wid, wok)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
