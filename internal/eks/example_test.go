package eks_test

import (
	"fmt"

	"medrelax/internal/eks"
)

// Example builds the paper's Figure 5 chain, customizes it with a shortcut
// edge, and shows that hop distance shrinks while semantic distance is
// preserved.
func Example() {
	g := eks.New()
	concepts := []eks.Concept{
		{ID: 1, Name: "clinical finding"},
		{ID: 2, Name: "kidney disease"},
		{ID: 3, Name: "chronic kidney disease"},
		{ID: 4, Name: "chronic kidney disease stage 1"},
		{ID: 5, Name: "chronic kidney disease stage 1 due to hypertension"},
	}
	for _, c := range concepts {
		if err := g.AddConcept(c); err != nil {
			panic(err)
		}
	}
	for _, e := range [][2]eks.ConceptID{{2, 1}, {3, 2}, {4, 3}, {5, 4}} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		panic(err)
	}

	before, _ := g.SemanticDistance(5, 2)
	if err := g.AddShortcutEdge(5, 2, before); err != nil {
		panic(err)
	}
	hops := 0
	for _, nb := range g.NeighborsWithinHops(5, 1) {
		if nb.ID == 2 {
			hops = nb.Hops
		}
	}
	after, _ := g.SemanticDistance(5, 2)
	fmt.Printf("hops after customization: %d, semantic distance: %d -> %d\n", hops, before, after)
	// Output: hops after customization: 1, semantic distance: 3 -> 3
}

// ExampleCommonSubsumers shows the least-common-subsumer lookup the
// similarity measure is built on: the common subsumer with the shortest
// combined upward distance.
func ExampleCommonSubsumers() {
	g := eks.New()
	for _, c := range []eks.Concept{
		{ID: 1, Name: "finding"}, {ID: 2, Name: "pain"},
		{ID: 3, Name: "headache"}, {ID: 4, Name: "back pain"},
	} {
		if err := g.AddConcept(c); err != nil {
			panic(err)
		}
	}
	for _, e := range [][2]eks.ConceptID{{2, 1}, {3, 2}, {4, 2}} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		panic(err)
	}
	a, _ := g.SubsumerVec(3)
	b, _ := g.SubsumerVec(4)
	lcs, best := eks.ConceptID(0), -1
	eks.CommonSubsumers(a, b, func(c eks.ConceptID, da, db int) {
		if best == -1 || da+db < best {
			lcs, best = c, da+db
		}
	})
	c, _ := g.Concept(lcs)
	fmt.Printf("lcs(headache, back pain) = %s at combined distance %d\n", c.Name, best)
	// Output: lcs(headache, back pain) = pain at combined distance 2
}
