package eks_test

// Equivalence tests: the frozen view's kernels must return exactly the same
// neighbor sets, subsumer distances, and descendant counts as the retained
// legacy map-based traversals — on the paper-figure fixtures and on seeded
// synthetic worlds up to ~10^4 concepts.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/synthkb"
)

// figure5Chain builds the paper's Figure 5 CKD chain plus the customization
// shortcut, the canonical mixed native/shortcut fixture.
func figure5Chain(t *testing.T) *eks.Graph {
	t.Helper()
	g := eks.New()
	for _, c := range []eks.Concept{
		{ID: 1, Name: "clinical finding"},
		{ID: 2, Name: "kidney disease"},
		{ID: 3, Name: "chronic kidney disease"},
		{ID: 4, Name: "chronic kidney disease stage 1"},
		{ID: 5, Name: "chronic kidney disease stage 1 due to hypertension"},
	} {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]eks.ConceptID{{2, 1}, {3, 2}, {4, 3}, {5, 4}} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddShortcutEdge(5, 2, 3); err != nil {
		t.Fatal(err)
	}
	return g
}

// figure4Diamond builds a multi-parent DAG in the shape of the paper's
// Figure 4 neighborhood: two upward paths of different lengths plus a
// shortcut, so minimal distances disagree with naive path counting.
func figure4Diamond(t *testing.T) *eks.Graph {
	t.Helper()
	g := eks.New()
	names := map[eks.ConceptID]string{
		1: "root", 2: "disorder", 3: "finding by site",
		4: "kidney disorder", 5: "hypertension", 6: "hypertensive kidney disease",
		7: "ckd due to hypertension",
	}
	for id, n := range names {
		if err := g.AddConcept(eks.Concept{ID: id, Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]eks.ConceptID{
		{2, 1}, {3, 1}, {4, 2}, {4, 3}, {5, 2}, {6, 4}, {6, 5}, {7, 6},
	} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddShortcutEdge(7, 4, 2); err != nil {
		t.Fatal(err)
	}
	return g
}

func synthWorld(t *testing.T, seed int64, conditionsPerPair int) *eks.Graph {
	t.Helper()
	w, err := synthkb.Generate(synthkb.Config{Seed: seed, ConditionsPerPair: conditionsPerPair})
	if err != nil {
		t.Fatal(err)
	}
	return w.Graph
}

func neighborKey(nbs []eks.Neighbor) map[eks.ConceptID]int {
	m := make(map[eks.ConceptID]int, len(nbs))
	for _, nb := range nbs {
		m[nb.ID] = nb.Hops
	}
	return m
}

// checkGraphEquivalence cross-checks every dense-kernel entry point against
// its legacy counterpart for the given source concepts.
func checkGraphEquivalence(t *testing.T, g *eks.Graph, ids []eks.ConceptID, radii []int) {
	t.Helper()
	legacy := eks.NewLegacyOracle(g)
	for _, id := range ids {
		for _, r := range radii {
			got := g.NeighborsWithinHops(id, r)
			want := legacy.NeighborsWithinHops(id, r)
			if len(got) != len(want) || !reflect.DeepEqual(neighborKey(got), neighborKey(want)) {
				t.Fatalf("NeighborsWithinHops(%d, %d): dense %v != legacy %v", id, r, got, want)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool {
				if got[i].Hops != got[j].Hops {
					return got[i].Hops < got[j].Hops
				}
				return got[i].ID < got[j].ID
			}) {
				t.Fatalf("NeighborsWithinHops(%d, %d): dense result not sorted: %v", id, r, got)
			}
		}

		wantUp := legacy.UpDistances(id)
		vec, ok := g.SubsumerVec(id)
		if !ok {
			t.Fatalf("SubsumerVec(%d): missing", id)
		}
		if vec.Len() != len(wantUp) {
			t.Fatalf("SubsumerVec(%d): %d entries, legacy has %d", id, vec.Len(), len(wantUp))
		}
		prev := eks.ConceptID(-1 << 62)
		for i := 0; i < vec.Len(); i++ {
			c, d := vec.At(i)
			if c <= prev {
				t.Fatalf("SubsumerVec(%d): ids not strictly ascending at %d", id, i)
			}
			prev = c
			if wd, ok := wantUp[c]; !ok || wd != d {
				t.Fatalf("SubsumerVec(%d): entry (%d,%d) disagrees with legacy %v", id, c, d, wantUp)
			}
		}

	}
	// A concept's descendants are the concepts whose legacy subsumer map
	// holds it.
	below := map[eks.ConceptID]int{}
	for _, c := range g.ConceptIDs() {
		for a := range legacy.UpDistances(c) {
			if a != c {
				below[a]++
			}
		}
	}
	for _, id := range ids {
		if got, want := g.DescendantCount(id), below[id]; got != want {
			t.Fatalf("DescendantCount(%d): dense %d != legacy %d", id, got, want)
		}
	}

	// CommonSubsumers must visit exactly the intersection of the legacy maps.
	for i := 0; i+1 < len(ids) && i < 8; i += 2 {
		a, b := ids[i], ids[i+1]
		va, _ := g.SubsumerVec(a)
		vb, _ := g.SubsumerVec(b)
		ma, mb := legacy.UpDistances(a), legacy.UpDistances(b)
		visited := map[eks.ConceptID][2]int{}
		eks.CommonSubsumers(va, vb, func(c eks.ConceptID, da, db int) {
			visited[c] = [2]int{da, db}
		})
		for c, da := range ma {
			db, shared := mb[c]
			got, hit := visited[c]
			if shared != hit {
				t.Fatalf("CommonSubsumers(%d,%d): concept %d shared=%v visited=%v", a, b, c, shared, hit)
			}
			if shared && (got[0] != da || got[1] != db) {
				t.Fatalf("CommonSubsumers(%d,%d): concept %d dists %v, legacy (%d,%d)", a, b, c, got, da, db)
			}
		}
		for c := range visited {
			if _, ok := ma[c]; !ok {
				t.Fatalf("CommonSubsumers(%d,%d): visited %d not a subsumer of %d", a, b, c, a)
			}
		}
	}
}

func TestDenseEquivalenceFigureFixtures(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *eks.Graph{
		"figure5chain":   figure5Chain,
		"figure4diamond": figure4Diamond,
	} {
		t.Run(name, func(t *testing.T) {
			g := build(t)
			checkGraphEquivalence(t, g, g.ConceptIDs(), []int{0, 1, 2, 3, 10})
		})
	}
}

func TestDenseEquivalenceSmallSynthWorld(t *testing.T) {
	g := synthWorld(t, 11, 2)
	checkGraphEquivalence(t, g, g.ConceptIDs(), []int{1, 2, 3})
}

// growToConcepts deterministically appends leaf variants under existing
// finding concepts until the graph holds at least n concepts; the generator
// itself saturates near 6k (its organ vocabulary is finite), so the 10^4
// scale point is reached by this extension layer.
func growToConcepts(t *testing.T, g *eks.Graph, w *synthkb.World, n int) {
	t.Helper()
	next := eks.ConceptID(1)
	for _, id := range g.ConceptIDs() {
		if id >= next {
			next = id + 1
		}
	}
	for i := 0; g.Len() < n; i++ {
		parent := w.Findings[i%len(w.Findings)]
		if err := g.AddConcept(eks.Concept{ID: next, Name: fmt.Sprintf("variant %d of concept %d", i, parent)}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddSubsumption(next, parent); err != nil {
			t.Fatal(err)
		}
		next++
	}
}

// TestDenseEquivalenceLargeSynthWorld cross-checks on a seeded world grown
// to 10^4 concepts, sampling sources to keep the legacy side tractable.
func TestDenseEquivalenceLargeSynthWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("large synthetic world skipped in -short mode")
	}
	w, err := synthkb.Generate(synthkb.Config{Seed: 42, ConditionsPerPair: 20})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	growToConcepts(t, g, w, 10000)
	n := g.Len()
	if n < 10000 {
		t.Fatalf("world too small for the scale test: %d concepts", n)
	}
	t.Logf("world: %d concepts, %d edges", n, g.EdgeCount())
	ids := g.ConceptIDs()
	var sample []eks.ConceptID
	for i := 0; i < len(ids); i += 37 {
		sample = append(sample, ids[i])
	}
	checkGraphEquivalence(t, g, sample, []int{1, 3})
}

// TestDenseInvalidationOnMutation guards the invalidation path: a concept,
// edge or synonym added after the frozen view was built must be reflected in
// subsequent reads.
func TestDenseInvalidationOnMutation(t *testing.T) {
	g := figure5Chain(t)
	g.Freeze()
	before := len(g.NeighborsWithinHops(5, 1))
	if err := g.AddConcept(eks.Concept{ID: 6, Name: "ckd stage 1 variant"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSubsumption(6, 4); err != nil {
		t.Fatal(err)
	}
	after := g.NeighborsWithinHops(5, 1)
	if len(after) != before {
		// 6 is two hops from 5 (via 4), so radius-1 counts must not change…
		t.Fatalf("radius-1 neighbors changed: %d -> %d", before, len(after))
	}
	// …but radius-2 must now see it.
	radius2 := g.NeighborsWithinHops(5, 2)
	if !slices.Contains(radius2, eks.Neighbor{ID: 6, Hops: 2}) {
		t.Fatal("frozen view not invalidated: new concept invisible at radius 2")
	}
	if c, ok := g.Concept(6); !ok || c.Name != "ckd stage 1 variant" {
		t.Fatalf("Concept(6) after Freeze = %+v, %v", c, ok)
	}
	if got := g.LookupName("CKD stage 1 variant"); !reflect.DeepEqual(got, []eks.ConceptID{6}) {
		t.Fatalf("LookupName of the new concept = %v", got)
	}

	g.Freeze()
	g.AddSynonym(6, "Early CKD, variant")
	if got := g.LookupName("early ckd variant"); !reflect.DeepEqual(got, []eks.ConceptID{6}) {
		t.Fatalf("LookupName of a synonym added after Freeze = %v", got)
	}
	if _, ok := slices.BinarySearch(g.NameKeys(), "early ckd variant"); !ok {
		t.Fatalf("NameKeys misses the synonym added after Freeze: %v", g.NameKeys())
	}
	if c, _ := g.Concept(6); !reflect.DeepEqual(c.Synonyms, []string{"Early CKD, variant"}) {
		t.Fatalf("Concept(6).Synonyms = %v", c.Synonyms)
	}
	if got := g.NeighborsWithinHops(5, 2); !reflect.DeepEqual(got, radius2) {
		t.Fatalf("radius-2 neighbors changed with a synonym: %v -> %v", radius2, got)
	}
	checkGraphEquivalence(t, g, g.ConceptIDs(), []int{1, 2, 3})
}
