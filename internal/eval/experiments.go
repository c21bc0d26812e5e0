package eval

import (
	"fmt"
	"sort"
	"strings"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/ontology"
)

// MapperScore is one row of Table 1.
type MapperScore struct {
	Method string
	PRF
}

// EvaluateMappers reproduces Table 1: every mapper maps every finding
// instance of the MED, scored against the generator's gold mappings. A
// mapping counts as a true positive when it hits the gold concept, a false
// positive when it hits any other concept, and a false negative when the
// mapper returns nothing (every finding instance has a gold concept).
func EvaluateMappers(med *medkb.MED, mappers []match.Mapper) []MapperScore {
	var instances []kb.InstanceID
	for iid := range med.Gold {
		instances = append(instances, iid)
	}
	sort.Slice(instances, func(i, j int) bool { return instances[i] < instances[j] })

	var out []MapperScore
	for _, m := range mappers {
		tp, fp, fn := 0, 0, 0
		for _, iid := range instances {
			inst, _ := med.Store.Instance(iid)
			got, ok := m.Map(inst.Name)
			switch {
			case !ok:
				fn++
			case got == med.Gold[iid]:
				tp++
			default:
				fp++
			}
		}
		out = append(out, MapperScore{Method: m.Name(), PRF: NewPRF(tp, fp, fn)})
	}
	return out
}

// PlacementScore counts where one mapper places query terms whose concept is
// known: on that concept (Right), on another one (Wrong) or nowhere
// (Unplaced).
type PlacementScore struct {
	Method                 string
	Right, Wrong, Unplaced int
}

// EvaluatePlacements maps every latent paraphrase — a surface form of its
// concept that the generator never registered as a name or synonym — through
// each mapper. It scores query-term mapping, which Table 1 (KB instances at
// ingestion) does not; a wrong placement is worse than none, since Algorithm 2
// then ranks a confidently wrong neighbourhood.
func EvaluatePlacements(latent map[eks.ConceptID][]string, mappers []match.Mapper) []PlacementScore {
	out := make([]PlacementScore, 0, len(mappers))
	for _, m := range mappers {
		row := PlacementScore{Method: m.Name()}
		for want, variants := range latent {
			for _, term := range variants {
				switch got, ok := m.Map(term); {
				case !ok:
					row.Unplaced++
				case got == want:
					row.Right++
				default:
					row.Wrong++
				}
			}
		}
		out = append(out, row)
	}
	return out
}

// Query is one evaluation query for Table 2: a surface term, its gold
// external concept, and the query context.
type Query struct {
	Term    string
	Concept eks.ConceptID
	Ctx     *ontology.Context
}

// SelectQueries picks the n most "commonly used" condition concepts — the
// covered findings with the highest popularity — and pairs each with the
// context its KB data supports (indication first, risk otherwise), mirroring
// the paper's 100 commonly used concepts of medical conditions.
func SelectQueries(med *medkb.MED, o *Oracle, n int) []Query {
	type popConcept struct {
		id  eks.ConceptID
		pop float64
	}
	var pcs []popConcept
	for cid := range med.FindingInstance {
		pcs = append(pcs, popConcept{id: cid, pop: med.Popularity[cid]})
	}
	sort.Slice(pcs, func(i, j int) bool {
		if pcs[i].pop != pcs[j].pop {
			return pcs[i].pop > pcs[j].pop
		}
		return pcs[i].id < pcs[j].id
	})
	ctxInd := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	ctxRisk := &ontology.Context{Domain: "Risk", Relationship: "hasFinding", Range: "Finding"}
	var out []Query
	for _, pc := range pcs {
		if len(out) == n {
			break
		}
		concept, ok := o.World.Graph.Concept(pc.id)
		if !ok {
			continue
		}
		ctx := ctxInd
		if !med.Treated[pc.id] {
			if !med.Caused[pc.id] {
				continue
			}
			ctx = ctxRisk
		}
		out = append(out, Query{Term: concept.Name, Concept: pc.id, Ctx: ctx})
	}
	return out
}

// MethodScore is one row of Table 2.
type MethodScore struct {
	Method string
	PRF
}

// EvaluateMethods reproduces Table 2: every method relaxes every query to
// its top-k concepts; the oracle judges each returned concept, and P@k /
// R@k are macro-averaged over queries. The universe for recall is the set
// of flagged external concepts.
func EvaluateMethods(methods []core.Method, queries []Query, o *Oracle, flagged map[eks.ConceptID]bool, k int) []MethodScore {
	var out []MethodScore
	for _, m := range methods {
		var ps, rs []float64
		for _, q := range queries {
			relevant := o.RelevantSet(q.Concept, q.Ctx, flagged)
			got := m.RelaxConcepts(q.Term, q.Ctx, k)
			judged := make([]bool, len(got))
			for i, cid := range got {
				judged[i] = cid != q.Concept && o.Relevant(q.Concept, cid, q.Ctx)
			}
			p, r := PrecisionRecallAtK(judged, k, len(relevant))
			ps = append(ps, p)
			rs = append(rs, r)
		}
		out = append(out, MethodScore{Method: m.Name(), PRF: MeanPRF(ps, rs)})
	}
	return out
}

// PerQueryF1 evaluates one method query by query, returning the per-query
// F1 values the bootstrap utilities resample. The inputs mirror
// EvaluateMethods.
func PerQueryF1(m core.Method, queries []Query, o *Oracle, flagged map[eks.ConceptID]bool, k int) []float64 {
	out := make([]float64, 0, len(queries))
	for _, q := range queries {
		relevant := o.RelevantSet(q.Concept, q.Ctx, flagged)
		got := m.RelaxConcepts(q.Term, q.Ctx, k)
		judged := make([]bool, len(got))
		for i, cid := range got {
			judged[i] = cid != q.Concept && o.Relevant(q.Concept, cid, q.Ctx)
		}
		p, r := PrecisionRecallAtK(judged, k, len(relevant))
		f1 := 0.0
		if p+r > 0 {
			f1 = 2 * p * r / (p + r)
		}
		out = append(out, f1)
	}
	return out
}

// FormatTable renders rows as an aligned text table with the given header,
// matching the layout of the paper's tables for side-by-side comparison.
func FormatTable(title string, header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
