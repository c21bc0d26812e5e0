package medrelax

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (Section 7), plus the ablation benches DESIGN.md calls
// out. Each table bench reports the reproduced metric values through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the numbers
// EXPERIMENTS.md records; cmd/benchtables prints the same rows with the
// paper's values side by side.

import (
	"fmt"
	"math"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eval"
	"medrelax/internal/synthkb"
)

// BenchmarkTable1MappingAccuracy reproduces Table 1: precision/recall/F1 of
// the EXACT, EDIT and EMBEDDING instance-to-concept mapping methods against
// the generator's gold mappings.
func BenchmarkTable1MappingAccuracy(b *testing.B) {
	sys := sharedSystem(b)
	var rows []eval.MapperScore
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = sys.Table1()
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.Precision, r.Method+"_P")
		b.ReportMetric(r.Recall, r.Method+"_R")
		b.ReportMetric(r.F1, r.Method+"_F1")
	}
}

// BenchmarkTable2OverallEffectiveness reproduces Table 2: P@10/R@10/F1 of
// QR, its ablations, the IC baseline and the two embedding baselines over
// 100 condition queries.
func BenchmarkTable2OverallEffectiveness(b *testing.B) {
	sys := sharedSystem(b)
	var rows []eval.MethodScore
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = sys.Table2(100, 10)
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.F1, r.Method+"_F1")
	}
}

// BenchmarkTable3UserStudy reproduces Table 3: the simulated 20-participant
// user study over the conversational interface with and without QR.
func BenchmarkTable3UserStudy(b *testing.B) {
	sys := sharedSystem(b)
	var res eval.StudyResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sys.Table3(eval.StudyConfig{})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.StopTimer()
	b.ReportMetric(res.WithQR.T1.Average(), "QR_T1_avg")
	b.ReportMetric(res.WithQR.T2.Average(), "QR_T2_avg")
	b.ReportMetric(res.WithoutQR.T1.Average(), "noQR_T1_avg")
	b.ReportMetric(res.WithoutQR.T2.Average(), "noQR_T2_avg")
}

// BenchmarkFigure4FrequencyPropagation regenerates the Figure 4 snippet:
// per-context frequency propagation over the paper's SNOMED fragment,
// asserting the paper's exact totals (19164 / 1656).
func BenchmarkFigure4FrequencyPropagation(b *testing.B) {
	g, direct := synthkb.Figure4Fixture()
	var ft *core.FrequencyTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := core.BuildFrequencyTableFromDirectCounts(g, direct, core.FrequencyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ft = t
	}
	b.StopTimer()
	ind := ft.Raw(synthkb.Fig4PainHeadNeck, synthkb.Fig4CtxIndication)
	risk := ft.Raw(synthkb.Fig4PainHeadNeck, synthkb.Fig4CtxRisk)
	if ind != 19164 || risk != 1656 {
		b.Fatalf("figure 4 totals = %v/%v, want 19164/1656", ind, risk)
	}
	b.ReportMetric(ind, "indication_freq")
	b.ReportMetric(risk, "risk_freq")
}

// BenchmarkFigure5Customization regenerates Figure 5: the shortcut edge
// turning a 3-hop ancestor into a 1-hop neighbour without changing the
// semantic distance.
func BenchmarkFigure5Customization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := synthkb.Figure5Fixture()
		if err := g.AddShortcutEdge(synthkb.Fig5CKDStage1HT, synthkb.Fig5Kidney, 3); err != nil {
			b.Fatal(err)
		}
		if d, _ := g.SemanticDistance(synthkb.Fig5CKDStage1HT, synthkb.Fig5Kidney); d != 3 {
			b.Fatalf("semantic distance = %d, want 3", d)
		}
	}
}

// BenchmarkFigure6PathPenalty regenerates Figure 6: the asymmetric
// direction-weighted path penalties of Equation 4 (0.9^6 vs 0.9^3).
func BenchmarkFigure6PathPenalty(b *testing.B) {
	g := synthkb.Figure6Fixture()
	w := core.DefaultPathWeights()
	var p1w, p2w float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, _ := g.ShortestSemanticPath(synthkb.Fig6Pneumonia, synthkb.Fig6LRTI)
		p2, _ := g.ShortestSemanticPath(synthkb.Fig6LRTI, synthkb.Fig6Pneumonia)
		p1w, p2w = w.PathWeight(p1), w.PathWeight(p2)
	}
	b.StopTimer()
	if math.Abs(p1w-math.Pow(0.9, 6)) > 1e-12 || math.Abs(p2w-math.Pow(0.9, 3)) > 1e-12 {
		b.Fatalf("penalties = %v/%v, want 0.9^6/0.9^3", p1w, p2w)
	}
	b.ReportMetric(p1w, "pneumonia_to_LRTI")
	b.ReportMetric(p2w, "LRTI_to_pneumonia")
}

// BenchmarkNLQExperiment runs the Section 6.2 query-answerability
// comparison (beyond the paper's tables; see EXPERIMENTS.md).
func BenchmarkNLQExperiment(b *testing.B) {
	sys := sharedSystem(b)
	var res eval.NLQResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = sys.NLQExperiment(eval.NLQConfig{})
	}
	b.StopTimer()
	b.ReportMetric(100*res.WithQR.AnsweredRate(), "QR_answered_pct")
	b.ReportMetric(100*res.WithoutQR.AnsweredRate(), "noQR_answered_pct")
}

// ---- Ablations (DESIGN.md) ----

// ablationSystem builds a fresh system with the given tweaks; it is not
// cached because ablations change the build.
func ablationSystem(b *testing.B, mutate func(*Config)) *System {
	b.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func qrF1(b *testing.B, sys *System) float64 {
	b.Helper()
	for _, r := range sys.Table2(100, 10) {
		if r.Method == "QR" {
			return r.F1
		}
	}
	b.Fatal("QR row missing")
	return 0
}

// BenchmarkAblationShortcutEdges compares online relaxation with and
// without the offline customization: without shortcut edges, the same
// fixed radius reaches far fewer flagged candidates, so recall collapses —
// the motivation for Algorithm 1's lines 19–23.
func BenchmarkAblationShortcutEdges(b *testing.B) {
	if testing.Short() {
		b.Skip("ablation builds two systems")
	}
	withS := ablationSystem(b, nil)
	withoutS := ablationSystem(b, func(c *Config) { c.Ingest.DisableShortcuts = true; c.Relax.DynamicRadius = false })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(qrF1(b, withS), "F1_with_shortcuts")
		b.ReportMetric(qrF1(b, withoutS), "F1_without_shortcuts")
		b.ReportMetric(float64(withS.Ingestion.ShortcutsAdded), "shortcut_edges")
	}
}

// BenchmarkAblationTFIDF compares raw frequency counts against the tf-idf
// adjusted counts the paper uses to counter document-frequency bias.
func BenchmarkAblationTFIDF(b *testing.B) {
	if testing.Short() {
		b.Skip("ablation builds two systems")
	}
	raw := ablationSystem(b, nil)
	tfidf := ablationSystem(b, func(c *Config) { c.Ingest.Frequency.UseTFIDF = true })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(qrF1(b, raw), "F1_raw_counts")
		b.ReportMetric(qrF1(b, tfidf), "F1_tfidf")
	}
}

// BenchmarkAblationGenWeight sweeps the generalization hop weight of
// Equation 4 around the paper's empirical 0.9.
func BenchmarkAblationGenWeight(b *testing.B) {
	sys := sharedSystem(b)
	queries := eval.SelectQueries(sys.Med, sys.Oracle, 100)
	for _, w := range []float64{0.5, 0.7, 0.9, 1.0} {
		b.Run(fmt.Sprintf("w=%.1f", w), func(b *testing.B) {
			sim := core.NewSimilarity(sys.Ingestion.Graph, sys.Ingestion.Frequencies, sys.Ingestion.Ontology)
			sim.Weights = core.PathWeights{Generalization: w, Specialization: 1}
			relaxer := core.NewRelaxer(sys.Ingestion, sim, sys.Mapper, sys.Config.Relax)
			var f1 float64
			for i := 0; i < b.N; i++ {
				f1 = scoreRelaxer(sys, relaxer, queries)
			}
			b.ReportMetric(f1, "F1")
		})
	}
}

// BenchmarkAblationRadius sweeps the fixed search radius of Algorithm 2.
func BenchmarkAblationRadius(b *testing.B) {
	sys := sharedSystem(b)
	queries := eval.SelectQueries(sys.Med, sys.Oracle, 100)
	for _, r := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			sim := core.NewSimilarity(sys.Ingestion.Graph, sys.Ingestion.Frequencies, sys.Ingestion.Ontology)
			relaxer := core.NewRelaxer(sys.Ingestion, sim, sys.Mapper, core.RelaxOptions{Radius: r})
			var f1 float64
			for i := 0; i < b.N; i++ {
				f1 = scoreRelaxer(sys, relaxer, queries)
			}
			b.ReportMetric(f1, "F1")
		})
	}
}

// BenchmarkAblationMapper ties Table 1 to Table 2: the mapping method used
// during ingestion changes which concepts get flagged and therefore the
// downstream relaxation quality.
func BenchmarkAblationMapper(b *testing.B) {
	if testing.Short() {
		b.Skip("ablation builds three systems")
	}
	for _, name := range []string{"EXACT", "EDIT", "EMBEDDING"} {
		b.Run(name, func(b *testing.B) {
			sys := ablationSystem(b, func(c *Config) { c.MapperName = name })
			var f1 float64
			for i := 0; i < b.N; i++ {
				f1 = qrF1(b, sys)
			}
			b.ReportMetric(f1, "F1")
			b.ReportMetric(float64(sys.Ingestion.FlaggedCount()), "flagged")
		})
	}
}

// scoreRelaxer evaluates one relaxer configuration as a Table 2 style F1.
func scoreRelaxer(sys *System, relaxer *core.Relaxer, queries []eval.Query) float64 {
	var ps, rs []float64
	flagged := sys.FlaggedSet()
	for _, q := range queries {
		relevant := sys.Oracle.RelevantSet(q.Concept, q.Ctx, flagged)
		results, err := relaxer.RelaxTerm(q.Term, q.Ctx, 0)
		if err != nil {
			ps = append(ps, 0)
			rs = append(rs, 0)
			continue
		}
		judged := make([]bool, 0, 10)
		for _, res := range results {
			if len(judged) == 10 {
				break
			}
			judged = append(judged, res.Concept != q.Concept && sys.Oracle.Relevant(q.Concept, res.Concept, q.Ctx))
		}
		p, r := eval.PrecisionRecallAtK(judged, 10, len(relevant))
		ps = append(ps, p)
		rs = append(rs, r)
	}
	return eval.MeanPRF(ps, rs).F1
}
