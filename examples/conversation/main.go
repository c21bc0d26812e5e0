// Conversation: reproduces the two Watson Assistant integration scenarios
// of the paper's Section 6.1 against the synthetic MED.
//
// Scenario 1 (Figure 7): the query term is unknown to the KB; relaxation
// repairs the conversation by offering semantically related conditions the
// KB does know, and the dialogue continues from the user's pick.
//
// Scenario 2 (Figure 8): the query term is known; relaxation expands the
// answer with related conditions before the direct information.
package main

import (
	"fmt"
	"log"
	"strings"

	"medrelax"
	"medrelax/internal/dialog"
	"medrelax/internal/eks"
)

func main() {
	fmt.Println("== conversational integration (Section 6.1) ==")
	sys, err := medrelax.Build(medrelax.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	conv, err := sys.NewConversation(true)
	if err != nil {
		log.Fatal(err)
	}

	// Scenario 1: pick an EKS finding with no KB instance — the
	// "pyelectasia" situation.
	unknown := findUncovered(sys)
	fmt.Printf("\n-- scenario 1: unknown term %q --\n", unknown)
	turn(conv, "what drugs treat "+unknown)
	// Accept the first suggestion, as the user in Figure 7 does.
	turn(conv, "1")

	// Scenario 2: a term the KB knows.
	conv.Reset()
	known := findTreated(sys)
	fmt.Printf("\n-- scenario 2: known term %q with answer expansion --\n", known)
	turn(conv, "what drugs treat "+known)

	// Context carry-over (Section 4): elliptical follow-up.
	fmt.Println("\n-- context carry-over --")
	turn(conv, "what about "+findTreated2(sys))

	// Without relaxation, scenario 1 dead-ends.
	fmt.Println("\n-- the same unknown term without query relaxation --")
	noQR, err := sys.NewConversation(false)
	if err != nil {
		log.Fatal(err)
	}
	turn(noQR, "what drugs treat "+unknown)
}

func turn(conv *dialog.Conversation, text string) {
	fmt.Printf("user:   %s\n", text)
	resp := conv.Ask(text)
	fmt.Printf("system: %s\n", resp.Text)
	if len(resp.Answers) > 0 {
		fmt.Printf("        answers: %s\n", strings.Join(trim(resp.Answers, 5), ", "))
	}
	if len(resp.Related) > 0 {
		fmt.Printf("        related: %s\n", strings.Join(trim(resp.Related, 7), ", "))
	}
}

func trim(xs []string, n int) []string {
	if len(xs) > n {
		return append(append([]string{}, xs[:n]...), "…")
	}
	return xs
}

// findUncovered returns a finding known to the external knowledge source
// but absent from the KB, whose neighbourhood has KB data.
func findUncovered(sys *medrelax.System) string {
	for _, cid := range sys.World.Findings {
		if sys.Ingestion.IsFlagged(cid) {
			continue
		}
		if _, err := sys.Relax(nameOf(sys, cid), medrelax.ContextIndication, 1); err == nil {
			return nameOf(sys, cid)
		}
	}
	return "pyelectasia"
}

func findTreated(sys *medrelax.System) string {
	best, bestPop := "", -1.0
	for cid := range sys.Med.Treated {
		if p := sys.Med.Popularity[cid]; p > bestPop {
			best, bestPop = nameOf(sys, cid), p
		}
	}
	return best
}

func findTreated2(sys *medrelax.System) string {
	first := findTreated(sys)
	best, bestPop := "", -1.0
	for cid := range sys.Med.Treated {
		name := nameOf(sys, cid)
		if name == first {
			continue
		}
		if p := sys.Med.Popularity[cid]; p > bestPop {
			best, bestPop = name, p
		}
	}
	return best
}

func nameOf(sys *medrelax.System, cid eks.ConceptID) string {
	c, _ := sys.World.Graph.Concept(cid)
	return c.Name
}
