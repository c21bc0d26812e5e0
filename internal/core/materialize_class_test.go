package core

// A materialized store ranks once per evidence class — the frequency labels a
// context subsumes — stores the ranking once, and points every context of the
// class at it. These tests hold it to the per-context build in the per-entry
// layout it replaced (legacyMaterialize, export_test.go), entry for entry, and
// hold the classes to the ICs they stand for.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

// sameAsPerEntryOracle fails unless every entry of a store answers as the
// same entry of the per-entry oracle (legacyMaterialize) does: the same keys,
// and the same counts, complete flag, slots and scores, to the bit, read
// through the ranking the entry names.
func sameAsPerEntryOracle(t *testing.T, m *Materialized, want FlatMaterializedData) {
	t.Helper()
	got := m.FlatData()
	if got.Relax != want.Relax || !slices.Equal(got.Concepts, want.Concepts) || !slices.Equal(got.Ctxs, want.Ctxs) {
		t.Fatalf("the store's entries (%d) are not the per-context oracle's (%d)", len(got.Concepts), len(want.Concepts))
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want.Concepts {
		e := m.entry(i)
		counts := want.Counts[want.CountOff[i]:want.CountOff[i+1]]
		lo, hi := want.CandOff[i], want.CandOff[i+1]
		if e.complete != (want.Complete[i] != 0) || !slices.Equal(e.counts, counts) ||
			!slices.Equal(e.cands, want.CandSlots[lo:hi]) || !slices.EqualFunc(e.scores, want.CandScores[lo:hi], sameBits) {
			t.Fatalf("entry (%d, %q) differs from the per-context oracle's", want.Concepts[i], want.Ctxs[i])
		}
	}
}

// evidenceOntology is the paper-figure ontology with one more level under
// AdverseEffect, so two different contexts can subsume the same label.
func evidenceOntology(t *testing.T) *ontology.Ontology {
	t.Helper()
	o := testOntology(t)
	if err := o.AddConcept(ontology.Concept{Name: "SeriousAdverseEffect", Parent: "AdverseEffect"}); err != nil {
		t.Fatal(err)
	}
	return o
}

// evidenceTable is a hand-built frequency table over the paper-figure graph
// with two context labels, A = BlackBoxWarning-hasFinding-Finding and B =
// SeriousAdverseEffect-hasFinding-Finding, and unlabeled mentions that only
// the aggregate counts — so a context that subsumes {A, B} does not read the
// aggregate's numbers.
func evidenceTable(t *testing.T) *FrequencyTable {
	t.Helper()
	spans := []struct {
		label string
		freq  map[eks.ConceptID]float64
	}{
		{"", map[eks.ConceptID]float64{1: 8, 5: 3, 7: 4, 9: 1}},
		{"BlackBoxWarning-hasFinding-Finding", map[eks.ConceptID]float64{1: 10, 2: 6, 3: 5, 4: 1, 5: 4, 9: 3, 10: 2, 11: 1}},
		{"SeriousAdverseEffect-hasFinding-Finding", map[eks.ConceptID]float64{1: 12, 2: 2, 3: 1, 5: 1, 7: 6, 8: 3, 9: 3, 10: 1, 11: 2}},
	}
	d := FlatFrequencyData{Root: 1, Off: []int32{0}}
	agg := map[eks.ConceptID]float64{}
	for _, s := range spans {
		d.Labels = append(d.Labels, s.label)
		for _, id := range sortedKeys(s.freq) {
			d.IDs, d.Vals = append(d.IDs, id), append(d.Vals, s.freq[id])
			agg[id] += s.freq[id]
		}
		d.Off = append(d.Off, int32(len(d.IDs)))
	}
	for _, id := range sortedKeys(agg) {
		d.AggIDs, d.AggVals = append(d.AggIDs, id), append(d.AggVals, agg[id])
	}
	table, err := OpenFlatFrequencyTable(d)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func sortedKeys(m map[eks.ConceptID]float64) []eks.ConceptID {
	ids := make([]eks.ConceptID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// evidenceContexts are the contexts materialized over evidenceTable, and
// evidenceWant their classes in stored (key) order: the context-free query
// and the three contexts that subsume no label; AdverseEffect and
// SeriousAdverseEffect, which subsume {B}; BlackBoxWarning's {A}; and Risk's
// {A, B}, a class of its own although it subsumes every label.
var (
	evidenceContexts = []ontology.Context{
		{Domain: "Drug", Relationship: "cause", Range: "Risk"},
		{Domain: "Drug", Relationship: "treat", Range: "Indication"},
		{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"},
		{Domain: "AdverseEffect", Relationship: "hasFinding", Range: "Finding"},
		{Domain: "SeriousAdverseEffect", Relationship: "hasFinding", Range: "Finding"},
		{Domain: "BlackBoxWarning", Relationship: "hasFinding", Range: "Finding"},
		{Domain: "Risk", Relationship: "hasFinding", Range: "Finding"},
	}
	// "", AdverseEffect, BlackBoxWarning, Drug-cause, Drug-treat, Indication,
	// Risk, SeriousAdverseEffect.
	evidenceWant = []int{0, 1, 2, 0, 0, 0, 6, 1}
)

func TestEvidenceClasses(t *testing.T) {
	o, table, g := evidenceOntology(t), evidenceTable(t), testEKS(t)
	ctxs := materializedContexts(MaterializeOptions{Contexts: evidenceContexts})
	if got := evidenceClasses(NewSimilarity(g, table, o), ctxs); !slices.Equal(got, evidenceWant) {
		t.Errorf("classes %v, want %v", got, evidenceWant)
	}
	// No ontology to resolve a context against: every context reads the
	// aggregate, as the context-free query does.
	if got := evidenceClasses(NewSimilarity(g, table, nil), ctxs); slices.ContainsFunc(got, func(c int) bool { return c != 0 }) {
		t.Errorf("classes without an ontology %v, want all 0", got)
	}
	for name, ic := range map[string]ICSource{"WithoutContext": WithoutContext(table), "IntrinsicIC": NewIntrinsicIC(g)} {
		got := evidenceClasses(NewSimilarity(g, ic, o), ctxs)
		for j, c := range got {
			if c != j {
				t.Errorf("%s: context %d in class %d; a source that is not a frequency table shares nothing", name, j, c)
			}
		}
	}
}

// TestClassStoreMatchesPerContextOracle: every entry of the store that ranks
// and stores once per evidence class reads as the same entry of the one that
// ranked and stored every context, on
// generated worlds, on a hand-built table where contexts share a non-empty
// label set (and one that subsumes every label does not share the
// aggregate's), and under IC sources where nothing shares.
func TestClassStoreMatchesPerContextOracle(t *testing.T) {
	relax := RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 6}
	check := func(t *testing.T, ing *Ingestion, sim *Similarity, opts MaterializeOptions) *Materialized {
		t.Helper()
		m := MaterializeTopK(ing, sim, opts)
		sameAsPerEntryOracle(t, m, legacyMaterialize(ing, sim, opts))
		if stored := len(m.FlatData().Complete); stored != m.rankings {
			t.Errorf("%d rankings stored, %d selected", stored, m.rankings)
		}
		return m
	}
	for name, ing := range oracleWorlds(t) {
		for _, depth := range []int{8, -1} {
			t.Run(fmt.Sprintf("%s/depth=%d", name, depth), func(t *testing.T) {
				sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
				m := check(t, ing, sim, MaterializeOptions{Relax: relax, HeadMax: 24, MaxPerQuery: depth, Contexts: ing.Contexts})
				if m.rankings >= m.Entries() {
					t.Errorf("%d rankings for %d entries: no context shared a class", m.rankings, m.Entries())
				}
			})
		}
	}
	t.Run("hand table", func(t *testing.T) {
		ing := ingestWorld(t, IngestOptions{})
		sim := NewSimilarity(ing.Graph, evidenceTable(t), evidenceOntology(t))
		m := check(t, ing, sim, MaterializeOptions{Relax: relax, HeadFraction: 1, Contexts: evidenceContexts})
		ctxs := len(evidenceWant)
		if want := m.Concepts() * 4; m.rankings != want {
			t.Errorf("%d rankings, want %d: four classes per head concept", m.rankings, want)
		}
		// The classes rank differently, or the oracle could not tell a wrong
		// share from a right one.
		d, differs := m.FlatData(), false
		for i := 0; i < m.Entries(); i += ctxs {
			all, risk := m.entry(i), m.entry(i+6) // "" and {A, B}
			differs = differs || !slices.Equal(all.scores, risk.scores)
			if d.Ctxs[i] != "" || d.Ctxs[i+6] != "Risk-hasFinding-Finding" {
				t.Fatalf("entries of concept %d out of key order: %q", d.Concepts[i], d.Ctxs[i:i+ctxs])
			}
		}
		if !differs {
			t.Error("the {A, B} class ranks every head concept as the aggregate does; the fixture tells nothing apart")
		}
	})
	ing := sharedIngestion(t, 11, 2, 20, false, 0, IngestOptions{})
	for name, ic := range map[string]ICSource{"WithoutContext": WithoutContext(ing.Frequencies), "IntrinsicIC": NewIntrinsicIC(ing.Graph)} {
		t.Run(name, func(t *testing.T) {
			m := check(t, ing, NewSimilarity(ing.Graph, ic, ing.Ontology), MaterializeOptions{Relax: relax, HeadMax: 16, Contexts: ing.Contexts})
			if m.rankings != m.Entries() {
				t.Errorf("%d rankings for %d entries; nothing shares under %s", m.rankings, m.Entries(), name)
			}
		})
	}
}

// TestMaterializeWorkCounts pins the work of materializing the default world
// (seed 42) the way the bench materializes w100k — every head concept under
// the context-free query and the ontology's 58 contexts — and what the store
// keeps of it. Before rankings were shared per evidence class, each of the 59
// entries of a head concept was a ranking of its own, scored and stored.
func TestMaterializeWorkCounts(t *testing.T) {
	ing := sharedIngestion(t, 42, 0, 0, false, 0, IngestOptions{})
	m := MaterializeTopK(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology),
		MaterializeOptions{Relax: RelaxOptions{Radius: 3, DynamicRadius: true}, Contexts: ing.Contexts})
	const (
		head, contexts, classes = 236, 59, 3
		hits                    = 666_936
		candidates              = 45_312
	)
	if m.Concepts() != head || m.Entries() != head*contexts {
		t.Fatalf("%d head concepts, %d entries; want %d and %d", m.Concepts(), m.Entries(), head, head*contexts)
	}
	if m.rankings != head*classes {
		t.Errorf("%d rankings, want %d head concepts x %d classes (%d before classes)", m.rankings, head, classes, head*contexts)
	}
	if m.scored != hits {
		t.Errorf("%d hits scored, want %d (%d before classes)", m.scored, hits, hits/classes*contexts)
	}
	d := m.FlatData()
	if len(d.Complete) != m.rankings || len(d.CandOff) != m.rankings+1 {
		t.Errorf("%d ranking rows stored, want the %d rankings selected", len(d.Complete), m.rankings)
	}
	if len(d.CandSlots) != candidates {
		t.Errorf("%d candidates stored, want %d (%d before one span per class)", len(d.CandSlots), candidates, candidates/classes*contexts)
	}
}

// TestFrequencyWorkCounts pins what the default world's (seed 42) frequency
// table stores: the span entries and aggregates whose value is not zero.
// Before spans kept only those, every label's span and the aggregate held
// every concept.
func TestFrequencyWorkCounts(t *testing.T) {
	ing := sharedIngestion(t, 42, 0, 0, false, 0, IngestOptions{})
	d := ing.Frequencies.FlatData()
	n := ing.Graph.Len()
	const entries, aggregates = 2_643, 1_462
	if len(d.IDs) != entries {
		t.Errorf("%d span entries stored, want %d (%d labels x %d concepts before)", len(d.IDs), entries, len(d.Labels), n)
	}
	if len(d.AggIDs) != aggregates {
		t.Errorf("%d aggregate entries stored, want %d (%d before)", len(d.AggIDs), aggregates, n)
	}
}

// classLabels is the pool FuzzContextClass draws a table's labels from,
// ascending: contexts over evidenceOntology at several depths, the unlabeled
// label and one that does not parse as a context.
var classLabels = []string{
	"",
	"AdverseEffect-hasFinding-Finding",
	"BlackBoxWarning-hasFinding-Finding",
	"Drug-cause-AdverseEffect",
	"Drug-cause-Risk",
	"Drug-treat-Indication",
	"Indication-hasFinding-Finding",
	"Risk-hasFinding-Finding",
	"SeriousAdverseEffect-hasFinding-Finding",
	"not-a context",
}

// FuzzContextClass draws a frequency table — which labels of classLabels it
// has and each one's frequencies over the paper-figure concepts — and resolves
// every context over evidenceOntology, and the context-free query, to its
// evidence class. Contexts of one class must give every concept, known or
// not, the same IC bits through contextIC.of, and a context that subsumes no
// label must share the context-free query's class.
func FuzzContextClass(f *testing.F) {
	f.Add([]byte{0xff, 0x03, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0x86, 0x01, 40, 0, 7, 0, 3, 1, 0, 0, 9, 2, 5, 12, 0, 0, 4, 4, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		mask := uint16(next()) | uint16(next())<<8
		d := FlatFrequencyData{Root: 1, Off: []int32{0}}
		agg := map[eks.ConceptID]float64{}
		for i, label := range classLabels {
			if mask&(1<<i) == 0 {
				continue
			}
			d.Labels = append(d.Labels, label)
			for id := eks.ConceptID(1); id <= 11; id++ {
				if v := next(); v != 0 {
					d.IDs, d.Vals = append(d.IDs, id), append(d.Vals, float64(v)/4)
					agg[id] += float64(v) / 4
				}
			}
			d.Off = append(d.Off, int32(len(d.IDs)))
		}
		for _, id := range sortedKeys(agg) {
			d.AggIDs, d.AggVals = append(d.AggIDs, id), append(d.AggVals, agg[id])
		}
		table, err := OpenFlatFrequencyTable(d)
		if err != nil {
			t.Fatal(err)
		}
		o := evidenceOntology(t)
		sim := NewSimilarity(nil, table, o)
		ctxs := []*ontology.Context{nil}
		concepts := []string{"Drug", "Indication", "Risk", "Finding", "BlackBoxWarning", "AdverseEffect", "ContraIndication", "SeriousAdverseEffect"}
		for _, dom := range concepts {
			for _, rel := range []string{"hasFinding", "cause", "treat"} {
				for _, rng := range concepts {
					ctxs = append(ctxs, &ontology.Context{Domain: dom, Relationship: rel, Range: rng})
				}
			}
		}
		ics := func(ctx *ontology.Context) []uint64 {
			ic := sim.icUnder(ctx)
			bits := make([]uint64, 0, 13)
			for id := eks.ConceptID(0); id <= 12; id++ {
				bits = append(bits, math.Float64bits(ic.of(id)))
			}
			return bits
		}
		class := evidenceClasses(sim, ctxs)
		for j, ctx := range ctxs {
			if c := class[j]; c != j && !slices.Equal(ics(ctx), ics(ctxs[c])) {
				t.Fatalf("%v shares the class of %v but not its ICs", ctx, ctxs[c])
			}
			ic := sim.icUnder(ctx)
			if labels, _ := ic.evidence(); len(labels) == 0 && class[j] != 0 {
				t.Fatalf("%v subsumes no label but is not in the context-free query's class", ctx)
			}
		}
	})
}
