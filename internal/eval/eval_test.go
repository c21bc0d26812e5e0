package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/ontology"
	"medrelax/internal/synthkb"
)

func TestNewPRF(t *testing.T) {
	m := NewPRF(8, 2, 2)
	if math.Abs(m.Precision-80) > 1e-9 || math.Abs(m.Recall-80) > 1e-9 || math.Abs(m.F1-80) > 1e-9 {
		t.Errorf("PRF = %+v", m)
	}
	// Degenerate cases are zero, not NaN.
	z := NewPRF(0, 0, 0)
	if z.Precision != 0 || z.Recall != 0 || z.F1 != 0 {
		t.Errorf("zero PRF = %+v", z)
	}
	if !strings.Contains(m.String(), "P=80.00") {
		t.Errorf("String = %s", m)
	}
}

func TestPRFProperties(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		m := NewPRF(int(tp), int(fp), int(fn))
		if math.IsNaN(m.Precision) || math.IsNaN(m.Recall) || math.IsNaN(m.F1) {
			return false
		}
		// Percentages in range, F1 between min and max of P and R (harmonic
		// mean property) when both positive.
		inRange := m.Precision >= 0 && m.Precision <= 100 &&
			m.Recall >= 0 && m.Recall <= 100 && m.F1 >= 0 && m.F1 <= 100
		if !inRange {
			return false
		}
		if m.Precision > 0 && m.Recall > 0 {
			lo, hi := m.Precision, m.Recall
			if lo > hi {
				lo, hi = hi, lo
			}
			return m.F1 >= lo-1e-9 && m.F1 <= hi+1e-9
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanPRF(t *testing.T) {
	m := MeanPRF([]float64{1, 0.5}, []float64{0.5, 0.5})
	if math.Abs(m.Precision-75) > 1e-9 || math.Abs(m.Recall-50) > 1e-9 {
		t.Errorf("MeanPRF = %+v", m)
	}
	if got := MeanPRF(nil, nil); got.Precision != 0 {
		t.Errorf("empty MeanPRF = %+v", got)
	}
	if got := MeanPRF([]float64{1}, []float64{1, 1}); got.Precision != 0 {
		t.Errorf("mismatched MeanPRF = %+v", got)
	}
}

func TestPrecisionRecallAtK(t *testing.T) {
	ranked := []bool{true, false, true, true, false}
	p, r := PrecisionRecallAtK(ranked, 5, 6)
	if math.Abs(p-0.6) > 1e-9 || math.Abs(r-0.5) > 1e-9 {
		t.Errorf("P@5=%v R@5=%v", p, r)
	}
	// Fewer results than k: precision over returned.
	p, r = PrecisionRecallAtK([]bool{true}, 10, 1)
	if p != 1 || r != 1 {
		t.Errorf("short list: P=%v R=%v", p, r)
	}
	// Nothing relevant expected: recall 1 by convention.
	_, r = PrecisionRecallAtK(nil, 10, 0)
	if r != 1 {
		t.Errorf("empty expectation recall = %v", r)
	}
	// k <= 0.
	p, r = PrecisionRecallAtK(ranked, 0, 3)
	if p != 0 || r != 0 {
		t.Errorf("k=0: P=%v R=%v", p, r)
	}
	// Recall clamps at 1.
	_, r = PrecisionRecallAtK([]bool{true, true}, 2, 1)
	if r != 1 {
		t.Errorf("recall must clamp to 1, got %v", r)
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable("Title", []string{"A", "Bee"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(s, "Title") || !strings.Contains(s, "333") {
		t.Errorf("table = %s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Errorf("table has %d lines: %s", len(lines), s)
	}
}

func buildOracleWorld(t *testing.T) (*synthkb.World, *medkb.MED, *Oracle) {
	t.Helper()
	w, med, _, err := medkb.GenerateWorld(17, synthkb.Config{}, medkb.Config{Drugs: 40})
	if err != nil {
		t.Fatal(err)
	}
	return w, med, NewOracle(w, med)
}

func TestOracleBasics(t *testing.T) {
	w, med, o := buildOracleWorld(t)
	// Identity.
	any := w.Findings[0]
	if !o.Relevant(any, any, nil) {
		t.Error("a concept is relevant to itself")
	}
	// Antonyms are never relevant.
	for a, b := range w.AntonymOf {
		if o.Relevant(a, b, nil) {
			ca, _ := w.Graph.Concept(a)
			cb, _ := w.Graph.Concept(b)
			t.Errorf("antonyms %s / %s judged relevant", ca.Name, cb.Name)
		}
	}
	// Cross-system pairs are never relevant.
	var resp, card eks.ConceptID
	for _, id := range w.Findings {
		switch w.Attrs[id].System {
		case "respiratory":
			if resp == 0 {
				resp = id
			}
		case "cardiovascular":
			if card == 0 {
				card = id
			}
		}
	}
	if resp != 0 && card != 0 && o.Relevant(resp, card, nil) {
		t.Error("cross-system pair judged relevant")
	}
	_ = med
}

func TestOracleContextGate(t *testing.T) {
	w, med, o := buildOracleWorld(t)
	ctxInd := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	ctxRisk := &ontology.Context{Domain: "Risk", Relationship: "hasFinding", Range: "Finding"}
	// Find a pair relevant without context where the candidate is untreated.
	checkedInd, checkedRisk := false, false
	for _, a := range w.Findings {
		for _, b := range w.Findings {
			if a == b || !o.Relevant(a, b, nil) {
				continue
			}
			if !med.Treated[b] && !checkedInd {
				checkedInd = true
				if o.Relevant(a, b, ctxInd) {
					t.Error("untreated candidate judged relevant in indication context")
				}
			}
			if !med.Caused[b] && !checkedRisk {
				checkedRisk = true
				if o.Relevant(a, b, ctxRisk) {
					t.Error("uncaused candidate judged relevant in risk context")
				}
			}
			if checkedInd && checkedRisk {
				return
			}
		}
	}
	if !checkedInd || !checkedRisk {
		t.Log("warning: could not exercise both context gates")
	}
}

func TestOracleUnknownConcepts(t *testing.T) {
	_, _, o := buildOracleWorld(t)
	if o.Relevant(999999999, 999999998, nil) {
		t.Error("unknown concepts must not be relevant")
	}
}

func TestRelevantSet(t *testing.T) {
	w, med, o := buildOracleWorld(t)
	universe := map[eks.ConceptID]bool{}
	for cid := range med.FindingInstance {
		universe[cid] = true
	}
	// RelevantSet excludes the query, is sorted, and agrees with Relevant.
	var query eks.ConceptID
	for cid := range med.FindingInstance {
		query = cid
		break
	}
	set := o.RelevantSet(query, nil, universe)
	for i, id := range set {
		if id == query {
			t.Error("query in its own relevant set")
		}
		if i > 0 && set[i-1] >= id {
			t.Error("relevant set not sorted")
		}
		if !o.Relevant(query, id, nil) {
			t.Error("set member not relevant")
		}
	}
	_ = w
}

func TestGradeDist(t *testing.T) {
	var g GradeDist
	for _, grade := range []int{1, 5, 5, 3, 0, 9} { // out-of-range clamps
		g.add(grade)
	}
	if g.Total() != 6 {
		t.Errorf("Total = %d", g.Total())
	}
	if g.Counts[0] != 2 || g.Counts[4] != 3 {
		t.Errorf("Counts = %v", g.Counts)
	}
	if math.Abs(g.Percent(5)-50) > 1e-9 {
		t.Errorf("Percent(5) = %v", g.Percent(5))
	}
	if g.Percent(6) != 0 || g.Percent(0) != 0 {
		t.Error("out-of-range Percent must be 0")
	}
	want := float64(1+5+5+3+1+5) / 6 // clamped: 1,5,5,3,1,5
	if math.Abs(g.Average()-want) > 1e-9 {
		t.Errorf("Average = %v, want %v", g.Average(), want)
	}
	var empty GradeDist
	if empty.Average() != 0 || empty.Percent(3) != 0 {
		t.Error("empty dist must be zero")
	}
}

func TestStudyConfigDefaults(t *testing.T) {
	c := StudyConfig{}.withDefaults()
	if c.Participants != 20 || c.T1Questions != 20 || c.T2Questions != 10 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestFormatStudy(t *testing.T) {
	var res StudyResult
	res.WithQR.T1.add(5)
	res.WithQR.T2.add(4)
	res.WithoutQR.T1.add(2)
	res.WithoutQR.T2.add(1)
	s := FormatStudy(res)
	for _, want := range []string{"Very satisfied", "AVG", "QR T1", "no-QR T2"} {
		if !strings.Contains(s, want) {
			t.Errorf("study table missing %q:\n%s", want, s)
		}
	}
}

func TestBootstrapCI(t *testing.T) {
	// Constant values: a degenerate interval at the mean.
	ci := BootstrapCI([]float64{0.5, 0.5, 0.5, 0.5}, 500, 0.95, 1)
	if ci.Mean != 0.5 || ci.Low != 0.5 || ci.High != 0.5 {
		t.Errorf("constant CI = %+v", ci)
	}
	// Spread values: interval brackets the mean and has positive width.
	vals := []float64{0, 0.2, 0.4, 0.6, 0.8, 1, 0.3, 0.7, 0.5, 0.9}
	ci = BootstrapCI(vals, 2000, 0.95, 2)
	if !(ci.Low < ci.Mean && ci.Mean < ci.High) {
		t.Errorf("CI does not bracket mean: %+v", ci)
	}
	if ci.High-ci.Low <= 0 {
		t.Error("zero-width CI on spread data")
	}
	// Deterministic for a fixed seed.
	ci2 := BootstrapCI(vals, 2000, 0.95, 2)
	if ci != ci2 {
		t.Error("bootstrap not deterministic")
	}
	// Degenerate inputs.
	if got := BootstrapCI(nil, 100, 0.95, 1); got.Mean != 0 {
		t.Errorf("empty CI = %+v", got)
	}
	// Defaults kick in for bad parameters.
	ci = BootstrapCI(vals, 0, 2.0, 3)
	if ci.Resamples != 2000 || ci.Level != 0.95 {
		t.Errorf("defaults not applied: %+v", ci)
	}
}

func TestPairedBootstrapDelta(t *testing.T) {
	a := []float64{0.9, 0.8, 0.85, 0.95, 0.9, 0.88, 0.92, 0.8}
	b := []float64{0.5, 0.4, 0.45, 0.55, 0.5, 0.52, 0.48, 0.44}
	ci := PairedBootstrapDelta(a, b, 2000, 0.95, 4)
	if ci.Low <= 0 {
		t.Errorf("a clearly dominates b; CI must exclude zero: %+v", ci)
	}
	// Identical series: delta CI centered at zero.
	ci = PairedBootstrapDelta(a, a, 500, 0.95, 4)
	if ci.Mean != 0 || ci.Low != 0 || ci.High != 0 {
		t.Errorf("self delta = %+v", ci)
	}
}

func TestEvaluateMappersAndMethodsRunners(t *testing.T) {
	w, med, o := buildOracleWorld(t)
	corp := medkb.BuildCorpus(w, med, medkb.CorpusConfig{Seed: 19})
	mapper := exactWorldMapper{w}
	ing, err := core.Ingest(med.Ontology, med.Store, w.Graph, corp, mapper, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Table 1 runner: three mappers, metrics in range, EXACT P=100.
	scores := EvaluateMappers(med, []match.Mapper{match.NewExact(w.Graph), match.NewEdit(w.Graph, 0)})
	if len(scores) != 2 {
		t.Fatalf("scores = %d", len(scores))
	}
	for _, s := range scores {
		if s.Precision < 0 || s.Precision > 100 || s.Recall < 0 || s.Recall > 100 {
			t.Errorf("%s out of range: %+v", s.Method, s.PRF)
		}
	}
	if scores[0].Method != "EXACT" || scores[0].Precision != 100 {
		t.Errorf("EXACT = %+v", scores[0])
	}

	// Query selection: popular, deduplicated, context-bearing.
	queries := SelectQueries(med, o, 30)
	if len(queries) != 30 {
		t.Fatalf("queries = %d", len(queries))
	}
	seen := map[string]bool{}
	for _, q := range queries {
		if q.Term == "" || q.Ctx == nil {
			t.Fatalf("malformed query %+v", q)
		}
		if seen[q.Term] {
			t.Errorf("duplicate query term %q", q.Term)
		}
		seen[q.Term] = true
	}

	// Table 2 runner over one method.
	m := core.NewQR(ing, mapper, core.RelaxOptions{Radius: 3, DynamicRadius: true})
	rows := EvaluateMethods([]core.Method{m}, queries, o, flaggedSet(ing), 10)
	if len(rows) != 1 || rows[0].Method != "QR" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].F1 <= 0 || rows[0].F1 > 100 {
		t.Errorf("F1 = %v", rows[0].F1)
	}

	// Per-query values agree with the macro average direction.
	perQ := PerQueryF1(m, queries, o, flaggedSet(ing), 10)
	if len(perQ) != len(queries) {
		t.Fatalf("per-query values = %d", len(perQ))
	}
	for _, v := range perQ {
		if v < 0 || v > 1 {
			t.Fatalf("per-query F1 %v out of [0,1]", v)
		}
	}
	ci := BootstrapCI(perQ, 1000, 0.95, 5)
	if ci.Mean <= 0 {
		t.Errorf("bootstrap mean = %v", ci.Mean)
	}
}

type exactWorldMapper struct{ w *synthkb.World }

func (m exactWorldMapper) Name() string { return "EXACT" }
func (m exactWorldMapper) Map(name string) (eks.ConceptID, bool) {
	ids := m.w.Graph.LookupName(name)
	if len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}
