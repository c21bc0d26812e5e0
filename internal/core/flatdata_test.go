package core

// Tests of the one frozen layout of the offline-phase products: a value
// assembled by its build function and the same columns adopted by its
// OpenFlat*/NewFlat* constructor must be indistinguishable to every exported
// read, adoption must be a fixed point, and hostile columns must be rejected
// before any read can index with them.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/strtab"
	"medrelax/internal/synthkb"
)

// paddedIngestion runs Algorithm 1 over a seeded synthkb + medkb world whose
// graph is grown to padTo concepts with leaf variants no KB instance maps
// to, hung round-robin under the findings — the shape of the bench's w100k:
// few flagged concepts in a large neighbourhood. variant ingests the world's
// variant vocabulary instead of its primary graph — the shape of a mounted
// second source.
func paddedIngestion(t *testing.T, seed int64, perPair, drugs int, variant bool, padTo int, opts IngestOptions) *Ingestion {
	t.Helper()
	w, med, corp, err := medkb.GenerateWorld(seed, synthkb.Config{ConditionsPerPair: perPair}, medkb.Config{Drugs: drugs})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	if variant {
		if g, err = synthkb.GenerateVariant(w); err != nil {
			t.Fatal(err)
		}
	}
	ids := g.ConceptIDs()
	next := ids[len(ids)-1] + 1
	for i := 0; g.Len() < padTo; i++ {
		parent := w.Findings[i%len(w.Findings)]
		if err := g.AddConcept(eks.Concept{ID: next, Name: fmt.Sprintf("variant %d of %d", i, parent)}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddSubsumption(next, parent); err != nil {
			t.Fatal(err)
		}
		next++
	}
	ing, err := Ingest(med.Ontology, med.Store, g, corp, match.NewExact(g), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ing.MappingCount() == 0 {
		t.Fatal("no instance mapped; the fixture exercises nothing")
	}
	return ing
}

// sharedIngestion is paddedIngestion built once per process for each shape
// and options, for fixtures that only read it. It memoizes ingestions, not
// worlds: Ingest customizes a world's graph in place.
func sharedIngestion(t *testing.T, seed int64, perPair, drugs int, variant bool, padTo int, opts IngestOptions) *Ingestion {
	t.Helper()
	key := fmt.Sprintf("%d/%d/%d/%t/%d/%+v", seed, perPair, drugs, variant, padTo, opts)
	sharedIngestionsMu.Lock()
	defer sharedIngestionsMu.Unlock()
	ing, ok := sharedIngestions[key]
	if !ok {
		ing = paddedIngestion(t, seed, perPair, drugs, variant, padTo, opts)
		sharedIngestions[key] = ing
	}
	return ing
}

var (
	sharedIngestionsMu sync.Mutex
	sharedIngestions   = map[string]*Ingestion{}
)

// flatWorlds are the ingestions the differential tests sweep: several seeds
// and sizes, tf-idf (non-integer) frequencies, a second-source-shaped one,
// and one with both accelerations. The tests only read them.
func flatWorlds(t *testing.T) map[string]*Ingestion {
	t.Helper()
	relax := RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 6}
	return map[string]*Ingestion{
		"paper-figure": ingestWorld(t, IngestOptions{}),
		"seed11":       sharedIngestion(t, 11, 2, 20, false, 0, IngestOptions{}),
		"seed23-tfidf": sharedIngestion(t, 23, 3, 35, false, 0, IngestOptions{Frequency: FrequencyOptions{UseTFIDF: true}}),
		"variant":      sharedIngestion(t, 11, 2, 20, true, 0, IngestOptions{}),
		"accelerated": sharedIngestion(t, 31, 2, 25, false, 0, IngestOptions{
			Materialize:    MaterializeOptions{Enabled: true, Relax: relax, HeadFraction: 0.5, HeadMax: 48, MaxPerQuery: 40},
			CandidateIndex: CandidateIndexOptions{Enabled: true, Radius: 4, MaxPostings: 400},
		}),
	}
}

func mustEqual(t *testing.T, what string, built, adopted any) {
	t.Helper()
	if !reflect.DeepEqual(built, adopted) {
		t.Fatalf("%s differs:\n built:   %v\n adopted: %v", what, built, adopted)
	}
}

func adoptIngestion(t *testing.T, ing *Ingestion) *Ingestion {
	t.Helper()
	adopted, err := NewFlatIngestion(ing.Contexts, ing.Graph, ing.Store, ing.Ontology, ing.Frequencies, ing.ShortcutsAdded, ing.FlatMappings())
	if err != nil {
		t.Fatalf("NewFlatIngestion(ing.FlatMappings()): %v", err)
	}
	return adopted
}

func assertSameMappings(t *testing.T, want, got *Ingestion) {
	t.Helper()
	mustEqual(t, "FlatMappings", want.FlatMappings(), got.FlatMappings())
	mustEqual(t, "MappingCount", want.MappingCount(), got.MappingCount())
	mustEqual(t, "FlaggedCount", want.FlaggedCount(), got.FlaggedCount())
	mustEqual(t, "FlaggedIDs", want.FlaggedIDs(), got.FlaggedIDs())
	ids := want.Graph.ConceptIDs()
	for _, id := range append(ids, ids[len(ids)-1]+1) {
		mustEqual(t, "IsFlagged", want.IsFlagged(id), got.IsFlagged(id))
		mustEqual(t, "InstancesForConcept", want.InstancesForConcept(id), got.InstancesForConcept(id))
	}
}

func TestAdoptedMappingsMatchBuilt(t *testing.T) {
	for name, ing := range flatWorlds(t) {
		t.Run(name, func(t *testing.T) {
			adopted := adoptIngestion(t, ing)
			assertSameMappings(t, ing, adopted)
			assertSameMappings(t, adopted, adoptIngestion(t, adopted))
			// The pairs alone rebuild the same columns.
			maps := ing.FlatMappings()
			mustEqual(t, "MappingsFromPairs", maps, MappingsFromPairs(maps.Instances, maps.Concepts))
		})
	}
}

func assertSameFrequencies(t *testing.T, ing *Ingestion, want, got *FrequencyTable) {
	t.Helper()
	mustEqual(t, "FlatData", want.FlatData(), got.FlatData())
	ids := ing.Graph.ConceptIDs()
	ids = append(ids, ids[len(ids)-1]+1)
	labels := append(want.FlatData().Labels.Strings(), "No-such-Label")
	for _, id := range ids {
		mustEqual(t, "RawAggregate", want.RawAggregate(id), got.RawAggregate(id))
		for _, label := range labels {
			mustEqual(t, "Raw", want.Raw(id, label), got.Raw(id, label))
		}
		for _, ctx := range queryContexts(ing) {
			mustEqual(t, "NormalizedForContext", want.NormalizedForContext(id, ctx, ing.Ontology), got.NormalizedForContext(id, ctx, ing.Ontology))
			mustEqual(t, "IC", want.IC(id, ctx, ing.Ontology), got.IC(id, ctx, ing.Ontology))
		}
	}
}

func TestAdoptedFrequencyTableMatchesBuilt(t *testing.T) {
	for name, ing := range flatWorlds(t) {
		t.Run(name, func(t *testing.T) {
			adopted, err := OpenFlatFrequencyTable(ing.Frequencies.FlatData())
			if err != nil {
				t.Fatal(err)
			}
			assertSameFrequencies(t, ing, ing.Frequencies, adopted)
			again, err := OpenFlatFrequencyTable(adopted.FlatData())
			if err != nil {
				t.Fatal(err)
			}
			assertSameFrequencies(t, ing, adopted, again)
		})
	}
}

// assertSameServing sweeps a sample of concepts, the context-free query and
// two contexts, and a spread of k values through two relaxers that differ
// only in the accelerations attached.
func assertSameServing(t *testing.T, ing *Ingestion, want, got *Relaxer) {
	t.Helper()
	ids := ing.Graph.ConceptIDs()
	step := max(1, len(ids)/40)
	for i := 0; i < len(ids); i += step {
		for _, qctx := range queryContexts(ing)[:3] {
			for _, k := range []int{0, 1, 3, 10} {
				mustEqual(t, fmt.Sprintf("RelaxConcept(%d, %v, %d)", ids[i], qctx, k),
					want.RelaxConcept(ids[i], qctx, k), got.RelaxConcept(ids[i], qctx, k))
			}
		}
	}
}

func TestAdoptedAccelerationsMatchBuilt(t *testing.T) {
	ing := flatWorlds(t)["accelerated"]
	relax := ing.Materialized.Options()
	relaxer := func(m *Materialized, x *CandidateIndex) *Relaxer {
		r := NewRelaxer(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology), match.NewExact(ing.Graph), relax)
		if m != nil && !r.SetMaterialized(m) {
			t.Fatal("materialized store refused")
		}
		if x != nil && !r.SetCandidateIndex(x) {
			t.Fatal("candidate index refused")
		}
		return r
	}

	t.Run("materialized", func(t *testing.T) {
		m := ing.Materialized
		adopted, err := OpenFlatMaterialized(m.FlatData(), ing.maps.Flagged)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "FlatData", m.FlatData(), adopted.FlatData())
		mustEqual(t, "Options", m.Options(), adopted.Options())
		mustEqual(t, "Entries", m.Entries(), adopted.Entries())
		mustEqual(t, "Concepts", m.Concepts(), adopted.Concepts())
		if m.Entries() == 0 || m.Concepts() == 0 || m.Entries() != m.Concepts()*(len(ing.Contexts)+1) {
			t.Fatalf("%d entries over %d concepts and %d contexts", m.Entries(), m.Concepts(), len(ing.Contexts))
		}
		again, err := OpenFlatMaterialized(adopted.FlatData(), ing.maps.Flagged)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "FlatData of a re-adopted store", adopted.FlatData(), again.FlatData())
		assertSameServing(t, ing, relaxer(m, nil), relaxer(adopted, nil))
		assertSameServing(t, ing, relaxer(nil, nil), relaxer(adopted, nil))
	})

	t.Run("candidate index", func(t *testing.T) {
		// The ingestion's own index skips every hub, which here is every flagged
		// concept; one built without the bound holds their own hits too.
		whole := BuildCandidateIndex(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology), CandidateIndexOptions{Radius: relax.Radius, MaxPostings: -1})
		if ing.Candidates.Skipped() == 0 || whole.Concepts() != ing.Graph.Len() || whole.Postings() >= len(whole.hits) {
			t.Fatalf("%d skipped hubs; %d of %d concepts indexed whole, %d postings of %d hits: the fixture exercises nothing",
				ing.Candidates.Skipped(), whole.Concepts(), ing.Graph.Len(), whole.Postings(), len(whole.hits))
		}
		flagged, nodes := ing.maps.Flagged, ing.Graph.FlatData().IDs
		for _, x := range []*CandidateIndex{ing.Candidates, whole} {
			adopted, err := OpenFlatCandidateIndex(x.FlatData(), flagged, nodes)
			if err != nil {
				t.Fatal(err)
			}
			mustEqual(t, "FlatData", x.FlatData(), adopted.FlatData())
			mustEqual(t, "hits", x.hits, adopted.hits)
			mustEqual(t, "shapes", x.shapes, adopted.shapes)
			mustEqual(t, "Skipped", x.Skipped(), adopted.Skipped())
			mustEqual(t, "Radius", x.Radius(), adopted.Radius())
			mustEqual(t, "Concepts", x.Concepts(), adopted.Concepts())
			mustEqual(t, "Postings", x.Postings(), adopted.Postings())
			if x.Postings() == 0 {
				t.Fatal("no postings; the fixture exercises nothing")
			}
			again, err := OpenFlatCandidateIndex(adopted.FlatData(), flagged, nodes)
			if err != nil {
				t.Fatal(err)
			}
			mustEqual(t, "FlatData of a re-adopted index", adopted.FlatData(), again.FlatData())
			assertSameServing(t, ing, relaxer(nil, x), relaxer(nil, adopted))
			assertSameServing(t, ing, relaxer(nil, nil), relaxer(nil, adopted))
		}
	})
}

// hostileCase corrupts one column of a valid layout.
type hostileCase[D any] struct {
	name   string
	mutate func(d *D)
	want   string
}

func runHostile[D any](t *testing.T, base func() D, open func(D) error, cases []hostileCase[D]) {
	t.Helper()
	if err := open(base()); err != nil {
		t.Fatalf("pristine columns rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base()
			tc.mutate(&d)
			err := open(d)
			if err == nil {
				t.Fatal("hostile columns adopted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestNewFlatIngestionRejectsHostileColumns(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	base := func() FlatMappingsData {
		d := ing.FlatMappings()
		return FlatMappingsData{
			Instances: slices.Clone(d.Instances), Concepts: slices.Clone(d.Concepts),
			Flagged: slices.Clone(d.Flagged), InstOff: slices.Clone(d.InstOff), InstPool: slices.Clone(d.InstPool),
		}
	}
	open := func(d FlatMappingsData) error {
		_, err := NewFlatIngestion(ing.Contexts, ing.Graph, ing.Store, ing.Ontology, ing.Frequencies, 0, d)
		return err
	}
	runHostile(t, base, open, []hostileCase[FlatMappingsData]{
		{"pair columns disagree", func(d *FlatMappingsData) { d.Concepts = d.Concepts[1:] }, "instances"},
		{"instances not ascending", func(d *FlatMappingsData) { d.Instances[1] = d.Instances[0] }, "not strictly ascending"},
		{"unknown instance", func(d *FlatMappingsData) { d.Instances[len(d.Instances)-1] = 1 << 40 }, "unknown instance"},
		{"offsets short", func(d *FlatMappingsData) { d.InstOff = d.InstOff[:len(d.InstOff)-1] }, "offsets have length"},
		{"offsets decrease", func(d *FlatMappingsData) { d.InstOff[1] = d.InstOff[2] + 1 }, "offsets decrease"},
		{"offsets past the pool", func(d *FlatMappingsData) { d.InstOff[len(d.InstOff)-1]++ }, "do not span"},
		{"pool larger than the pairs", func(d *FlatMappingsData) {
			d.InstPool = append(d.InstPool, d.InstPool[0])
			d.InstOff[len(d.InstOff)-1]++
		}, "pool instances"},
		{"flagged not ascending", func(d *FlatMappingsData) { d.Flagged[1] = d.Flagged[0] }, "flagged set not strictly ascending"},
		{"unknown concept", func(d *FlatMappingsData) { d.Flagged[len(d.Flagged)-1] = 1 << 40 }, "unknown concept"},
		{"flagged concept without instances", func(d *FlatMappingsData) { d.InstOff[1] = 0 }, "has no instances"},
		{"span disagrees with the pairs", func(d *FlatMappingsData) { d.InstPool[0], d.InstPool[1] = d.InstPool[1], d.InstPool[0] }, "disagrees with mapping pairs"},
		{"flagged set misses a mapped concept", func(d *FlatMappingsData) { d.Concepts[0] = d.Concepts[1] }, "disagrees with mapping pairs"},
	})
}

// TestNewFlatIngestionFindsEveryIDExactly: a mapped instance the store does
// not hold, a flagged concept the graph does not hold and a span instance the
// pairs do not hold are each refused with the same message wherever the id
// falls — in a gap of the column it is looked up in, below its first id, past
// its last, at either end of int64.
func TestNewFlatIngestionFindsEveryIDExactly(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	whole := func() FlatMappingsData {
		d := ing.FlatMappings()
		return MappingsFromPairs(slices.Clone(d.Instances), slices.Clone(d.Concepts))
	}
	// The pairs without their second, so the instance column has a gap.
	gapped := func() FlatMappingsData {
		d := ing.FlatMappings()
		return MappingsFromPairs(slices.Delete(slices.Clone(d.Instances), 1, 2), slices.Delete(slices.Clone(d.Concepts), 1, 2))
	}
	open := func(d FlatMappingsData) error {
		_, err := NewFlatIngestion(ing.Contexts, ing.Graph, ing.Store, ing.Ontology, ing.Frequencies, 0, d)
		return err
	}
	for _, base := range []func() FlatMappingsData{whole, gapped} {
		if err := open(base()); err != nil {
			t.Fatalf("pristine columns rejected: %v", err)
		}
	}
	storeIDs, graphIDs := ing.Store.FlatData().IDs, ing.Graph.FlatData().IDs
	var storeGap kb.InstanceID // an id inside the store's span it does not hold
	for i := 1; i < len(storeIDs) && storeGap == 0; i++ {
		if storeIDs[i] > storeIDs[i-1]+1 {
			storeGap = storeIDs[i] - 1
		}
	}
	pairs := whole()
	if storeGap == 0 || storeGap >= pairs.Instances[1] || pairs.Instances[len(pairs.Instances)-1] != storeIDs[len(storeIDs)-1] {
		t.Fatalf("fixture: store %v, mapped instances %v", storeIDs, pairs.Instances)
	}
	last := func(n int) int { return n - 1 }
	instance := func(at func(int) int, id kb.InstanceID) func(d *FlatMappingsData) string {
		return func(d *FlatMappingsData) string {
			d.Instances[at(len(d.Instances))] = id
			return fmt.Sprintf("core: mapping references unknown instance %d", id)
		}
	}
	concept := func(at func(int) int, id eks.ConceptID) func(d *FlatMappingsData) string {
		return func(d *FlatMappingsData) string {
			d.Flagged[at(len(d.Flagged))] = id
			return fmt.Sprintf("core: mapping references unknown concept %d", id)
		}
	}
	span := func(at func(int) int, id kb.InstanceID) func(d *FlatMappingsData) string {
		return func(d *FlatMappingsData) string {
			i := at(len(d.Flagged))
			d.InstPool[d.InstOff[i]] = id
			return fmt.Sprintf("core: instance span of concept %d disagrees with mapping pairs at instance %d", d.Flagged[i], id)
		}
	}
	first := func(int) int { return 0 }
	cases := []struct {
		name   string
		base   func() FlatMappingsData
		mutate func(d *FlatMappingsData) string
	}{
		{"instance in a gap of the store", whole, instance(first, storeGap)},
		{"instance below the store", whole, instance(first, storeIDs[0]-1)},
		{"instance MinInt64", whole, instance(first, math.MinInt64)},
		{"instance past the store", whole, instance(last, storeIDs[len(storeIDs)-1]+1)},
		{"instance MaxInt64", whole, instance(last, math.MaxInt64)},
		{"flagged below the graph", whole, concept(first, graphIDs[0]-1)},
		{"flagged MinInt64", whole, concept(first, math.MinInt64)},
		{"flagged past the graph", whole, concept(last, graphIDs[len(graphIDs)-1]+1)},
		{"flagged MaxInt64", whole, concept(last, math.MaxInt64)},
		{"span instance in a gap of the pairs", gapped, span(first, pairs.Instances[1])},
		{"span instance below the pairs", whole, span(first, pairs.Instances[0]-1)},
		{"span instance MinInt64", whole, span(first, math.MinInt64)},
		{"span instance past the pairs", whole, span(last, pairs.Instances[len(pairs.Instances)-1]+1)},
		{"span instance MaxInt64", whole, span(last, math.MaxInt64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.base()
			want := tc.mutate(&d)
			if err := open(d); err == nil || err.Error() != want {
				t.Fatalf("error %v, want %q", err, want)
			}
		})
	}
}

func TestOpenFlatFrequencyTableRejectsHostileColumns(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	base := func() FlatFrequencyData {
		d := ing.Frequencies.FlatData()
		d.Off, d.IDs, d.Vals = slices.Clone(d.Off), slices.Clone(d.IDs), slices.Clone(d.Vals)
		d.AggIDs, d.AggVals = slices.Clone(d.AggIDs), slices.Clone(d.AggVals)
		return d
	}
	open := func(d FlatFrequencyData) error {
		_, err := OpenFlatFrequencyTable(d)
		return err
	}
	runHostile(t, base, open, []hostileCase[FlatFrequencyData]{
		{"value column short", func(d *FlatFrequencyData) { d.Vals = d.Vals[1:] }, "ids"},
		{"aggregate column short", func(d *FlatFrequencyData) { d.AggVals = d.AggVals[1:] }, "aggregate"},
		{"labels not ascending", func(d *FlatFrequencyData) { d.Labels = withString(d.Labels, 1, d.Labels.At(0)) }, "labels not strictly ascending"},
		{"offsets short", func(d *FlatFrequencyData) { d.Off = d.Off[:len(d.Off)-1] }, "offsets have length"},
		{"offsets decrease", func(d *FlatFrequencyData) { d.Off[1] = d.Off[2] + 1 }, "offsets decrease"},
		{"offsets past the pool", func(d *FlatFrequencyData) { d.Off[len(d.Off)-1]++ }, "do not span"},
		{"span ids not ascending", func(d *FlatFrequencyData) { d.IDs[1] = d.IDs[0] }, "ids not strictly ascending"},
		{"aggregate ids not ascending", func(d *FlatFrequencyData) { d.AggIDs[1] = d.AggIDs[0] }, "aggregate ids not strictly ascending"},
	})
}

func TestOpenFlatAccelerationsRejectHostileColumns(t *testing.T) {
	ing, _, _ := accelWorld(t,
		RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
		MaterializeOptions{HeadFraction: 1},
		CandidateIndexOptions{Radius: 8})

	t.Run("materialized", func(t *testing.T) {
		base := func() FlatMaterializedData {
			d := ing.Materialized.FlatData()
			d.Concepts, d.Ranking = slices.Clone(d.Concepts), slices.Clone(d.Ranking)
			d.Complete, d.CountOff, d.Counts = slices.Clone(d.Complete), slices.Clone(d.CountOff), slices.Clone(d.Counts)
			d.CandOff, d.CandScores, d.CandSlots = slices.Clone(d.CandOff), slices.Clone(d.CandScores), slices.Clone(d.CandSlots)
			return d
		}
		// second is the first entry of the second concept. The store must
		// share a ranking between entries of a concept, or the layout checks
		// tell nothing apart.
		d := base()
		second := slices.IndexFunc(d.Concepts, func(c eks.ConceptID) bool { return c != d.Concepts[0] })
		if d.CandOff[1] < 2 || second < 0 || len(d.Complete) >= len(d.Concepts) {
			t.Fatal("fixture too small to corrupt meaningfully")
		}
		open := func(d FlatMaterializedData) error {
			_, err := OpenFlatMaterialized(d, ing.maps.Flagged)
			return err
		}
		runHostile(t, base, open, []hostileCase[FlatMaterializedData]{
			{"non-normalized options", func(d *FlatMaterializedData) { d.Relax.MaxRadius = 0 }, "non-normalized"},
			{"entry columns disagree", func(d *FlatMaterializedData) { d.Ctxs = strtab.Pack(d.Ctxs.Strings()[1:]) }, "contexts"},
			{"ranking column short", func(d *FlatMaterializedData) { d.Ranking = d.Ranking[1:] }, "ranking indexes"},
			{"entries not ascending", func(d *FlatMaterializedData) {
				d.Concepts[1], d.Ctxs = d.Concepts[0], withString(d.Ctxs, 1, d.Ctxs.At(0))
			}, "entries not strictly ascending"},
			{"ranking index past the rankings", func(d *FlatMaterializedData) { d.Ranking[len(d.Ranking)-1] = int32(len(d.Complete)) }, "past the"},
			{"negative ranking index", func(d *FlatMaterializedData) { d.Ranking[0] = -1 }, "past the"},
			{"rankings out of first-use order", func(d *FlatMaterializedData) { d.Ranking[0] = 1 }, "first-use order"},
			{"ranking shared by two concepts", func(d *FlatMaterializedData) { d.Ranking[second] = d.Ranking[second-1] }, "of an earlier concept"},
			{"ranking named by no entry", func(d *FlatMaterializedData) {
				last := d.Ranking[len(d.Ranking)-1]
				for i := len(d.Ranking) - 1; d.Ranking[i] == last; i-- {
					d.Ranking[i] = last - 1
				}
			}, "named by no entry"},
			{"flags column short", func(d *FlatMaterializedData) { d.Complete = d.Complete[1:] }, "counts offsets have length"},
			{"count offsets short", func(d *FlatMaterializedData) { d.CountOff = d.CountOff[1:] }, "counts offsets have length"},
			{"wrong radius-count span", func(d *FlatMaterializedData) { d.CountOff[1]-- }, "radius counts"},
			{"candidate offsets short", func(d *FlatMaterializedData) { d.CandOff = d.CandOff[:len(d.CandOff)-1] }, "candidates offsets have length"},
			{"candidate offsets decrease", func(d *FlatMaterializedData) { d.CandOff[1] = d.CandOff[2] + 1 }, "candidates offsets decrease"},
			{"candidate offsets past the pool", func(d *FlatMaterializedData) { d.CandOff[len(d.CandOff)-1]++ }, "do not span"},
			{"hops beyond the max radius", func(d *FlatMaterializedData) { d.CandSlots[0] = d.CandSlots[0]&^matMaxHops | 99 }, "exceeds max radius"},
			{"negative hops", func(d *FlatMaterializedData) { d.CandSlots[0] |= matMaxHops }, "exceeds max radius"}, // -1 in the hop byte
			{"out-of-order ranking", func(d *FlatMaterializedData) {
				d.CandScores[0], d.CandScores[1] = d.CandScores[1], d.CandScores[0]
				d.CandSlots[0], d.CandSlots[1] = d.CandSlots[1], d.CandSlots[0]
			}, "not in ranking order"},
			{"tied scores, slots descending", func(d *FlatMaterializedData) {
				d.CandScores[1] = d.CandScores[0]
				d.CandSlots[0], d.CandSlots[1] = max(d.CandSlots[0], d.CandSlots[1]), min(d.CandSlots[0], d.CandSlots[1])
			}, "not in ranking order"},
			{"slot past the flagged set", func(d *FlatMaterializedData) { d.CandSlots[0] = packMatCand(int32(len(ing.maps.Flagged)), 1) }, "names flagged slot"},
			{"slot past the flagged set in the last ranking", func(d *FlatMaterializedData) {
				d.CandSlots[len(d.CandSlots)-1] = packMatCand(int32(len(ing.maps.Flagged)), 1)
			}, "names flagged slot"},
			{"score column short", func(d *FlatMaterializedData) { d.CandScores = d.CandScores[1:] }, "candidate scores"},
			{"max radius past the hop byte", func(d *FlatMaterializedData) { d.Relax.MaxRadius = matMaxHops + 1 }, "does not fit a stored candidate"},
		})
	})

	t.Run("candidate index", func(t *testing.T) {
		// A generated world, indexed whole: tied LCS sets and unflagged indexed
		// concepts, which the eleven-concept one lacks.
		ing := flatWorlds(t)["seed11"]
		flagged, nodes := ing.maps.Flagged, ing.Graph.FlatData().IDs
		index := BuildCandidateIndex(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology), CandidateIndexOptions{Radius: 2, MaxPostings: -1})
		base := func() FlatCandidateIndexData {
			d := index.FlatData()
			d.Concepts, d.Off, d.Hits, d.Levels, d.Counts = slices.Clone(d.Concepts), slices.Clone(d.Off), slices.Clone(d.Hits), slices.Clone(d.Levels), slices.Clone(d.Counts)
			d.ShapeOff, d.Shapes, d.SetOff, d.TiedOff, d.Tied = slices.Clone(d.ShapeOff), slices.Clone(d.Shapes), slices.Clone(d.SetOff), slices.Clone(d.TiedOff), slices.Clone(d.Tied)
			return d
		}
		// own is a flagged concept with two candidates or more, bare an
		// unflagged one with some; sole and tied are hits (as positions in the
		// word column) past hop 0 with a sole LCS and with a tied set.
		own, bare, sole, tied := -1, -1, -1, -1
		d := base()
		hits := wordsAs[geoHit](d.Hits)
		for ci := range d.Concepts {
			lo, hi, self := d.Off[ci], d.Off[ci+1], d.Levels[ci*(d.Radius+1)]
			if own < 0 && self == 1 && hi-lo >= 3 {
				own = ci
			}
			if bare < 0 && self == 0 && hi > lo {
				bare = ci
			}
			for i := lo + self; i < hi; i++ {
				if sole < 0 && hits[i].lcs >= 0 {
					sole = int(3 * i)
				}
				if tied < 0 && hits[i].lcs < 0 && hits[i].lcs != geoNoMeet {
					tied = int(3 * i)
				}
			}
		}
		if own < 0 || bare < 0 || sole < 0 || tied < 0 || len(d.TiedOff) < 3 {
			t.Fatalf("fixture lacks something to corrupt: own %d, bare %d, sole %d, tied %d, %d tied sets", own, bare, sole, tied, len(d.TiedOff)-1)
		}
		stride := d.Radius + 1
		open := func(d FlatCandidateIndexData) error {
			_, err := OpenFlatCandidateIndex(d, flagged, nodes)
			return err
		}
		runHostile(t, base, open, []hostileCase[FlatCandidateIndexData]{
			{"zero radius", func(d *FlatCandidateIndexData) { d.Radius = 0 }, "radius 0"},
			{"negative skipped count", func(d *FlatCandidateIndexData) { d.Skipped = -1 }, "skipped count"},
			{"concepts not ascending", func(d *FlatCandidateIndexData) { d.Concepts[1] = d.Concepts[0] }, "concepts not strictly ascending"},
			{"offsets short", func(d *FlatCandidateIndexData) { d.Off = d.Off[1:] }, "offsets have length"},
			{"offsets past the pool", func(d *FlatCandidateIndexData) { d.Off[len(d.Off)-1]++ }, "do not span"},
			{"hits not whole records", func(d *FlatCandidateIndexData) { d.Hits = d.Hits[:len(d.Hits)-1] }, "not whole records"},
			{"shapes not whole records", func(d *FlatCandidateIndexData) { d.Shapes = d.Shapes[1:] }, "not whole records"},
			{"level column short", func(d *FlatCandidateIndexData) { d.Levels = d.Levels[1:] }, "level ends"},
			{"count column short", func(d *FlatCandidateIndexData) { d.Counts = d.Counts[1:] }, "counts for"},
			{"shape offsets torn", func(d *FlatCandidateIndexData) { d.ShapeOff[1] = d.ShapeOff[len(d.ShapeOff)-1] + 1 }, "shape offsets decrease"},
			{"tied-set offsets past the pool", func(d *FlatCandidateIndexData) { d.SetOff[len(d.SetOff)-1]++ }, "tied-set offsets do not span"},
			{"tied-set boundaries missing", func(d *FlatCandidateIndexData) { d.TiedOff = nil }, "tied-set offsets do not span"},
			{"LCS span inverted: tied-set boundaries decrease", func(d *FlatCandidateIndexData) { d.TiedOff[1] = d.TiedOff[2] + 1 }, "tied-node offsets decrease"},
			{"LCS set not ascending", func(d *FlatCandidateIndexData) { d.Tied[1] = d.Tied[0] }, "ascending nodes"},
			{"tied set of one member", func(d *FlatCandidateIndexData) { d.TiedOff[1] = d.TiedOff[0] + 1 }, "two or more"},
			{"tied node past the graph", func(d *FlatCandidateIndexData) { d.Tied[d.TiedOff[1]-1] = int32(len(nodes)) }, "ascending nodes"},
			{"negative geometry", func(d *FlatCandidateIndexData) { d.Shapes[0] = -1 }, "negative path shape"},
			{"hops out of range: level end past the span", func(d *FlatCandidateIndexData) { d.Levels[own*stride+d.Radius]++ }, "do not grow to the span"},
			{"hop order violated: level ends decrease", func(d *FlatCandidateIndexData) {
				d.Levels[own*stride+1] = d.Levels[own*stride+d.Radius] + 1
			}, "do not grow to the span"},
			{"counts decrease", func(d *FlatCandidateIndexData) { d.Counts[own*stride+d.Radius] = d.Counts[own*stride] - 1 }, "do not grow to the span"},
			{"own hit missing", func(d *FlatCandidateIndexData) { d.Levels[own*stride] = 0 }, "not its own hit alone"},
			{"own hit names another slot", func(d *FlatCandidateIndexData) { d.Hits[3*d.Off[own]]++ }, "not its own hit alone"},
			{"own hit carries a meet", func(d *FlatCandidateIndexData) { d.Hits[3*d.Off[own]+1] = 0 }, "not its own hit alone"},
			{"hit at hop 0 of an unflagged concept", func(d *FlatCandidateIndexData) { d.Levels[bare*stride] = 1 }, "is not flagged"},
			{"instances at hop 0 of an unflagged concept", func(d *FlatCandidateIndexData) { d.Counts[bare*stride] = 1 }, "is not flagged"},
			{"slot past the flagged set", func(d *FlatCandidateIndexData) { d.Hits[sole] = int32(len(flagged)) }, "outside the flagged set"},
			{"negative slot", func(d *FlatCandidateIndexData) { d.Hits[sole] = -1 }, "outside the flagged set"},
			{"LCS node past the graph", func(d *FlatCandidateIndexData) { d.Hits[sole+1] = int32(len(nodes)) }, "hit LCS"},
			{"LCS span outside the pool: tied set past the concept's", func(d *FlatCandidateIndexData) { d.Hits[tied+1] = ^int32(len(d.TiedOff)) }, "hit LCS"},
			{"shape past the concept's", func(d *FlatCandidateIndexData) { d.Hits[sole+2] = int32(len(d.Shapes)) }, "hit shape"},
		})
	})
}

// withString is a string column with its i-th string replaced, packed anew:
// how a hostile case edits a column, which is never mutated in place.
func withString(c strtab.Column, i int, s string) strtab.Column {
	ss := c.Strings()
	ss[i] = s
	return strtab.Pack(ss)
}
