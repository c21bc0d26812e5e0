// Feedback: demonstrates the relevance-feedback loop the paper's
// conclusion proposes — "incorporate the user's relevance feedback in the
// query relaxation method, and ... progressively improve the relaxed
// results".
//
// A clinician repeatedly asks about the same colloquial term; every time
// they reject the top suggestion and pick a lower one, the feedback store
// shifts the ranking until the system leads with what this user base
// actually wants.
package main

import (
	"fmt"
	"log"

	"medrelax"
	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

func main() {
	fmt.Println("== relevance feedback loop (paper Section 9) ==")
	sys, err := medrelax.Build(medrelax.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	relaxer := core.NewFeedbackRelaxer(sys.Engine.Relaxer(), nil)
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}

	// Pick a term with several candidates.
	q, term := pickTerm(sys)
	fmt.Printf("\nquery term: %q\n", term)

	show := func(round int) []core.Result {
		results, err := relaxer.RelaxTerm(term, ctx, 0)
		if err != nil {
			log.Fatal(err)
		}
		n := 5
		if len(results) < n {
			n = len(results)
		}
		fmt.Printf("\nround %d ranking:\n", round)
		for i, r := range results[:n] {
			c, _ := sys.World.Graph.Concept(r.Concept)
			fmt.Printf("  %d. %-45s score=%.4f\n", i+1, c.Name, r.Score)
		}
		return results
	}

	before := show(0)
	if len(before) < 3 {
		log.Fatal("not enough candidates to demonstrate feedback")
	}
	target := before[2].Concept // the users consistently want #3

	fmt.Println("\n... ten sessions in which users skip the top suggestions and pick #3 ...")
	for i := 0; i < 10; i++ {
		relaxer.Feedback.Reject(q, before[0].Concept, ctx)
		relaxer.Feedback.Reject(q, before[1].Concept, ctx)
		relaxer.Feedback.Accept(q, target, ctx)
	}

	after := show(1)
	cTarget, _ := sys.World.Graph.Concept(target)
	fmt.Printf("\nusers' preferred concept %q moved from rank 3 to rank %d\n",
		cTarget.Name, rankOf(after, target))
}

// pickTerm returns the most popular treated concept and its name.
func pickTerm(sys *medrelax.System) (eks.ConceptID, string) {
	var best eks.ConceptID
	bestPop := -1.0
	for cid := range sys.Med.Treated {
		if p := sys.Med.Popularity[cid]; p > bestPop {
			best, bestPop = cid, p
		}
	}
	c, _ := sys.World.Graph.Concept(best)
	return best, c.Name
}

func rankOf(results []core.Result, target eks.ConceptID) int {
	for i, r := range results {
		if r.Concept == target {
			return i + 1
		}
	}
	return -1
}
