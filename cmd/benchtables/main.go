// Command benchtables regenerates every table and figure of the paper's
// evaluation section against the synthetic world, printing the measured
// values next to the paper's reported ones (see EXPERIMENTS.md for the
// discussion of deviations).
//
// Usage:
//
//	benchtables              # everything
//	benchtables -table 2     # just Table 2
//	benchtables -figure 4    # just Figure 4
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"medrelax"
	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/eval"
	"medrelax/internal/synthkb"
)

func main() {
	var (
		seed   = flag.Int64("seed", 42, "generation seed")
		table  = flag.Int("table", 0, "regenerate only this table (1, 2 or 3)")
		figure = flag.Int("figure", 0, "regenerate only this figure (4, 5 or 6)")
		ci     = flag.Bool("ci", false, "bootstrap confidence intervals for the Table 2 comparisons")
	)
	flag.Parse()

	wantTable := func(n int) bool { return *figure == 0 && (*table == 0 || *table == n) }
	wantFigure := func(n int) bool { return *table == 0 && (*figure == 0 || *figure == n) }

	var sys *medrelax.System
	if wantTable(1) || wantTable(2) || wantTable(3) {
		cfg := medrelax.DefaultConfig()
		cfg.Seed = *seed
		fmt.Fprintln(os.Stderr, "building synthetic world ...")
		s, err := medrelax.Build(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		sys = s
	}

	if wantTable(1) {
		printTable1(sys)
	}
	if wantTable(2) {
		printTable2(sys)
		if *ci {
			printTable2CI(sys)
		}
	}
	if wantTable(3) {
		printTable3(sys)
	}
	if *table == 0 && *figure == 0 {
		printNLQ(sys)
	}
	if wantFigure(4) {
		printFigure4()
	}
	if wantFigure(5) {
		printFigure5()
	}
	if wantFigure(6) {
		printFigure6()
	}
}

// paper values for side-by-side comparison.
var (
	paperTable1 = map[string][3]float64{
		"EXACT":     {100, 83.33, 90.01},
		"EDIT":      {96.36, 88.33, 92.17},
		"EMBEDDING": {96.49, 91.67, 94.02},
	}
	paperTable2 = map[string][3]float64{
		"QR":                    {90.51, 82.64, 86.40},
		"QR-no-context":         {85.45, 77.27, 81.15},
		"QR-no-corpus":          {78.23, 70.91, 74.39},
		"IC":                    {75.55, 68.18, 71.68},
		"Embedding-pre-trained": {66.14, 60.13, 62.99},
		"Embedding-trained":     {79.37, 71.81, 75.40},
	}
)

func printTable1(sys *medrelax.System) {
	rows := [][]string{}
	for _, r := range sys.Table1() {
		p := paperTable1[r.Method]
		rows = append(rows, []string{
			r.Method,
			fmt.Sprintf("%.2f", r.Precision), fmt.Sprintf("%.2f", r.Recall), fmt.Sprintf("%.2f", r.F1),
			fmt.Sprintf("%.2f", p[0]), fmt.Sprintf("%.2f", p[1]), fmt.Sprintf("%.2f", p[2]),
		})
	}
	fmt.Println(eval.FormatTable("Table 1: accuracy of mapping methods (measured vs paper)",
		[]string{"Method", "P", "R", "F1", "paper P", "paper R", "paper F1"}, rows))
}

func printTable2(sys *medrelax.System) {
	rows := [][]string{}
	for _, r := range sys.Table2(100, 10) {
		p := paperTable2[r.Method]
		rows = append(rows, []string{
			r.Method,
			fmt.Sprintf("%.2f", r.Precision), fmt.Sprintf("%.2f", r.Recall), fmt.Sprintf("%.2f", r.F1),
			fmt.Sprintf("%.2f", p[0]), fmt.Sprintf("%.2f", p[1]), fmt.Sprintf("%.2f", p[2]),
		})
	}
	fmt.Println(eval.FormatTable("Table 2: overall effectiveness, P@10/R@10/F1 (measured vs paper)",
		[]string{"Method", "P@10", "R@10", "F1", "paper P", "paper R", "paper F1"}, rows))
}

// printTable2CI reports 95% bootstrap confidence intervals per method and
// the paired delta of QR over each alternative — is the lead bigger than
// query-sampling noise?
func printTable2CI(sys *medrelax.System) {
	queries := eval.SelectQueries(sys.Med, sys.Oracle, 100)
	perMethod := map[string][]float64{}
	var order []string
	flagged := sys.FlaggedSet()
	for _, m := range sys.Methods {
		perMethod[m.Name()] = eval.PerQueryF1(m, queries, sys.Oracle, flagged, 10)
		order = append(order, m.Name())
	}
	rows := [][]string{}
	for _, name := range order {
		c := eval.BootstrapCI(perMethod[name], 2000, 0.95, 9)
		row := []string{name,
			fmt.Sprintf("%.1f", 100*c.Mean),
			fmt.Sprintf("[%.1f, %.1f]", 100*c.Low, 100*c.High)}
		if name != "QR" {
			d := eval.PairedBootstrapDelta(perMethod["QR"], perMethod[name], 2000, 0.95, 9)
			sig := ""
			if d.Low > 0 {
				sig = " *"
			}
			row = append(row, fmt.Sprintf("%.1f [%.1f, %.1f]%s", 100*d.Mean, 100*d.Low, 100*d.High, sig))
		} else {
			row = append(row, "—")
		}
		rows = append(rows, row)
	}
	fmt.Println(eval.FormatTable("Table 2 bootstrap CIs (per-query F1, 95%; * = QR lead excludes zero)",
		[]string{"Method", "mean F1", "95% CI", "QR delta"}, rows))
}

func printTable3(sys *medrelax.System) {
	res, err := sys.Table3(eval.StudyConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	fmt.Println(eval.FormatStudy(res))
	fmt.Printf("paper averages: QR T1 3.73, QR T2 3.31, no-QR T1 3.06, no-QR T2 2.67\n\n")
}

func printNLQ(sys *medrelax.System) {
	res := sys.NLQExperiment(eval.NLQConfig{})
	fmt.Println(eval.FormatNLQ(res))
	fmt.Println("(beyond the paper's tables: quantifies the Section 6.2 NLQ integration)")
	fmt.Println()
}

func printFigure4() {
	g, direct := synthkb.Figure4Fixture()
	ft, err := core.BuildFrequencyTableFromDirectCounts(g, direct, core.FrequencyOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	fmt.Println("Figure 4: per-context frequency propagation on the paper's SNOMED snippet")
	for _, row := range []struct {
		id   eks.ConceptID
		name string
	}{
		{synthkb.Fig4Headache, "headache"},
		{synthkb.Fig4CraniofacialPain, "craniofacial pain"},
		{synthkb.Fig4PainInThroat, "pain in throat"},
		{synthkb.Fig4PainHeadNeck, "pain of head and neck region"},
	} {
		fmt.Printf("  %-30s indication=%6.0f risk=%5.0f\n", row.name,
			ft.Raw(row.id, synthkb.Fig4CtxIndication), ft.Raw(row.id, synthkb.Fig4CtxRisk))
	}
	fmt.Println("  paper: pain of head and neck region = 19164 (= 18878 + 283 + 3) / 1656")
	fmt.Println()
}

func printFigure5() {
	g := synthkb.Figure5Fixture()
	d, _ := g.SemanticDistance(synthkb.Fig5CKDStage1HT, synthkb.Fig5Kidney)
	fmt.Println("Figure 5: external knowledge source customization")
	fmt.Printf("  original distance CKD-stage-1-due-to-hypertension -> kidney disease: %d hops\n", d)
	if err := g.AddShortcutEdge(synthkb.Fig5CKDStage1HT, synthkb.Fig5Kidney, d); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	hops := 0
	for _, nb := range g.NeighborsWithinHops(synthkb.Fig5Kidney, 1) {
		if nb.ID == synthkb.Fig5CKDStage1HT {
			hops = nb.Hops
		}
	}
	d2, _ := g.SemanticDistance(synthkb.Fig5CKDStage1HT, synthkb.Fig5Kidney)
	fmt.Printf("  after the shortcut edge: %d hop apart, semantic distance still %d\n", hops, d2)
	fmt.Println("  paper: 3 hops become 1 hop; the original 3-hop distance is attached to the new edge")
	fmt.Println()
}

func printFigure6() {
	g := synthkb.Figure6Fixture()
	w := core.DefaultPathWeights()
	p1, _ := g.ShortestSemanticPath(synthkb.Fig6Pneumonia, synthkb.Fig6LRTI)
	p2, _ := g.ShortestSemanticPath(synthkb.Fig6LRTI, synthkb.Fig6Pneumonia)
	fmt.Println("Figure 6: directional path penalties (Equation 4, w_gen=0.9, w_spec=1.0)")
	fmt.Printf("  pneumonia -> LRTI: %d hops, %d generalizations, weight %.4f (paper: 0.9^6 = %.4f)\n",
		p1.Len(), p1.Generalizations(), w.PathWeight(p1), math.Pow(0.9, 6))
	fmt.Printf("  LRTI -> pneumonia: %d hops, %d generalization,  weight %.4f (paper: 0.9^3 = %.4f)\n",
		p2.Len(), p2.Generalizations(), w.PathWeight(p2), math.Pow(0.9, 3))
	fmt.Println()
}
