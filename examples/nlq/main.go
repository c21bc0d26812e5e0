// NLQ: reproduces the paper's Section 6.2 running example against the
// synthetic MED — the ATHENA-style natural language query pipeline with
// query relaxation plugged into evidence generation (Figure 9).
//
// The pipeline turns "what are the risks caused by using <drug> with
// <unknown condition>" into evidence sets, enumerates interpretations as
// Steiner trees over the semantic graph, ranks them by compactness with
// the relaxation score as tie-breaker, compiles the winner to a SQL-like
// structured query, and executes it over the instance store.
package main

import (
	"fmt"
	"log"
	"strings"

	"medrelax"
	"medrelax/internal/match"
	"medrelax/internal/nlq"
	"medrelax/internal/synthkb"
)

func main() {
	fmt.Println("== natural language query integration (Section 6.2) ==")
	sys, err := medrelax.Build(medrelax.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	combined := match.NewCombined(sys.Mappers["EXACT"], sys.Mappers["EDIT"], sys.Mappers["EMBEDDING"])
	opts := sys.Config.Relax
	opts.IncludeSelf = true
	relaxer := sys.Engine.NewRelaxer(combined, opts)
	system := nlq.NewSystem(sys.Med.Ontology, sys.Med.Store, relaxer, sys.Ingestion)

	// Assemble the Figure 9 style query from the synthetic world: a drug,
	// one of its caused findings, and an unknown term near that finding.
	drug, unknown := figure9Pair(sys)
	query := fmt.Sprintf("what are the risks caused by using %s with %s", drug, unknown)
	fmt.Printf("\nquery: %s\n\n", query)

	// Show the evidence sets first (Figure 9's annotation step).
	for _, te := range system.Evidence.Generate(query) {
		kinds := make([]string, 0, len(te.Evidences))
		for _, ev := range te.Evidences {
			kind := "metadata"
			if ev.Kind == nlq.DataValue {
				kind = "data-value"
			}
			if ev.Relaxed {
				kind += fmt.Sprintf("(relaxed, score %.3f)", ev.Score)
			}
			kinds = append(kinds, fmt.Sprintf("%s:%s", kind, ev.Concept))
		}
		fmt.Printf("  evidence %-28q -> %s\n", te.Span, strings.Join(kinds, ", "))
	}

	ans, err := system.Answer(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest interpretation (compactness %d, relaxation score %.3f):\n  %s\n",
		ans.Interpretation.Compactness, ans.Interpretation.RelaxScore, ans.Interpretation)
	if n := len(ans.Alternatives); n > 0 {
		fmt.Printf("(%d lower-ranked interpretations discarded)\n", n)
	}
	fmt.Printf("\nstructured query:\n  %s\n", ans.SQL)
	fmt.Printf("\nanswers (%d):\n", len(ans.Results))
	for _, r := range ans.Results {
		fmt.Printf("  - %s\n", r)
	}

	// A simpler drug-focused query for contrast.
	query2 := "which drugs treat " + someTreated(sys)
	fmt.Printf("\nquery: %s\n", query2)
	ans2, err := system.Answer(query2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answers: %s\n", strings.Join(ans2.Results, ", "))
}

// figure9Pair picks a drug with a caused finding, and an unknown (not in
// the KB) term whose relaxation neighbourhood includes that finding — the
// shape of the paper's "risks caused by using Aspirin with pyelectasia".
func figure9Pair(sys *medrelax.System) (drug, unknown string) {
	for _, drugID := range sys.Med.Store.InstancesOf("Drug") {
		for _, riskID := range sys.Med.Store.Objects("cause", drugID) {
			for _, findID := range sys.Med.Store.Objects("hasFinding", riskID) {
				caused := sys.Med.Gold[findID]
				// An unflagged neighbour of the caused finding.
				for _, nb := range sys.World.Graph.NeighborsWithinHops(caused, 2) {
					if sys.Ingestion.IsFlagged(nb.ID) || sys.World.Attrs[nb.ID].Kind != synthkb.KindFinding {
						continue
					}
					c, _ := sys.World.Graph.Concept(nb.ID)
					results, err := sys.Relax(c.Name, "", 5)
					if err != nil {
						continue
					}
					for _, r := range results {
						if r.ConceptID == caused {
							d, _ := sys.Med.Store.Instance(drugID)
							return d.Name, c.Name
						}
					}
				}
			}
		}
	}
	// Fallback: any drug and term.
	d, _ := sys.Med.Store.Instance(sys.Med.Store.InstancesOf("Drug")[0])
	return d.Name, "pyelectasia"
}

func someTreated(sys *medrelax.System) string {
	best, bestPop := "", -1.0
	for cid := range sys.Med.Treated {
		if p := sys.Med.Popularity[cid]; p > bestPop {
			c, _ := sys.World.Graph.Concept(cid)
			best, bestPop = c.Name, p
		}
	}
	return best
}
