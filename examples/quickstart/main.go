// Quickstart: build the synthetic medical world, run the offline knowledge
// source ingestion (Algorithm 1), and relax a few query terms online
// (Algorithm 2), printing the ranked results.
package main

import (
	"fmt"
	"log"

	"medrelax"
)

func main() {
	fmt.Println("== medrelax quickstart ==")
	fmt.Println("building the synthetic world (external knowledge source, MED, corpus) ...")
	sys, err := medrelax.Build(medrelax.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("external knowledge source: %d concepts, %d edges (%d shortcut edges added by ingestion)\n",
		sys.World.Graph.Len(), sys.World.Graph.EdgeCount(), sys.Ingestion.ShortcutsAdded)
	fmt.Printf("MED knowledge base: %d instances over %d ontology concepts / %d relationships\n",
		sys.Med.Store.Len(), sys.Med.Ontology.ConceptCount(), sys.Med.Ontology.RelationshipCount())
	fmt.Printf("flagged external concepts (have KB data): %d\n\n", sys.Ingestion.FlaggedCount())

	// The paper's running example: "pyelectasia" has no direct drug
	// information; relaxation finds related conditions that do.
	for _, q := range []struct{ term, ctx string }{
		{"pyelectasia", medrelax.ContextIndication},
		{"headache", medrelax.ContextIndication},
		{"fever", medrelax.ContextRisk},
	} {
		results, err := sys.Relax(q.term, q.ctx, 5)
		if err != nil {
			fmt.Printf("relax %q: %v\n\n", q.term, err)
			continue
		}
		fmt.Printf("top relaxations of %q in context %s:\n", q.term, q.ctx)
		for i, r := range results {
			fmt.Printf("  %d. %-45s score=%.4f hops=%d (%d KB instances)\n",
				i+1, r.ConceptName, r.Score, r.Hops, len(r.Instances))
		}
		fmt.Println()
	}
}
