package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/ontology"
)

// accelWorld ingests the shared world with both offline accelerations
// enabled under the given relax options and returns the ingestion plus a
// pure-live relaxer and an accelerated relaxer over the same state.
func accelWorld(t *testing.T, ropts RelaxOptions, mopts MaterializeOptions, copts CandidateIndexOptions) (*Ingestion, *Relaxer, *Relaxer) {
	t.Helper()
	mopts.Enabled = true
	mopts.Relax = ropts
	copts.Enabled = true
	ing := ingestWorld(t, IngestOptions{Materialize: mopts, CandidateIndex: copts})
	if ing.Materialized == nil {
		t.Fatal("ingest did not build materialized store")
	}
	if ing.Candidates == nil {
		t.Fatal("ingest did not build candidate index")
	}
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	live := NewRelaxer(ing, sim, exactMapper{ing.Graph}, ropts)
	accel := NewRelaxer(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology), exactMapper{ing.Graph}, ropts)
	if !accel.SetMaterialized(ing.Materialized) {
		t.Fatal("SetMaterialized refused a store built under the same options")
	}
	if !accel.SetCandidateIndex(ing.Candidates) {
		t.Fatalf("SetCandidateIndex refused an index of radius %d for serving radius %d",
			ing.Candidates.Radius(), ropts.Radius)
	}
	return ing, live, accel
}

// queryContexts returns every context the equivalence sweeps cover: the
// context-free query plus each ontology-derived context.
func queryContexts(ing *Ingestion) []*ontology.Context {
	ctxs := []*ontology.Context{nil}
	for i := range ing.Contexts {
		ctxs = append(ctxs, &ing.Contexts[i])
	}
	return ctxs
}

// assertIdentical sweeps every graph concept, context, and a spread of k
// values, requiring the accelerated relaxer's output to be deeply equal to
// the live traversal's.
func assertIdentical(t *testing.T, ing *Ingestion, live, accel *Relaxer) {
	t.Helper()
	ks := []int{0, 1, 2, 3, 5, 100}
	for _, q := range ing.Graph.ConceptIDs() {
		for _, qctx := range queryContexts(ing) {
			for _, k := range ks {
				want := live.RelaxConcept(q, qctx, k)
				got := accel.RelaxConcept(q, qctx, k)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("concept %d ctx %q k %d:\nlive  %+v\naccel %+v",
						q, ctxKey(qctx), k, want, got)
				}
			}
		}
	}
}

func TestAcceleratedPathsByteIdentical(t *testing.T) {
	cases := []struct {
		name  string
		ropts RelaxOptions
		mopts MaterializeOptions
		copts CandidateIndexOptions
	}{
		{
			name:  "default dynamic, full-coverage index",
			ropts: RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
			mopts: MaterializeOptions{HeadFraction: 1},
			copts: CandidateIndexOptions{Radius: 8},
		},
		{
			name:  "dynamic growth outruns narrow index",
			ropts: RelaxOptions{Radius: 2, DynamicRadius: true, MaxRadius: 8},
			mopts: MaterializeOptions{HeadFraction: 1},
			copts: CandidateIndexOptions{Radius: 3},
		},
		{
			name:  "fixed radius",
			ropts: RelaxOptions{Radius: 2, DynamicRadius: false},
			mopts: MaterializeOptions{HeadFraction: 1},
			copts: CandidateIndexOptions{Radius: 4},
		},
		{
			name:  "include self",
			ropts: RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 6, IncludeSelf: true},
			mopts: MaterializeOptions{HeadFraction: 1},
			copts: CandidateIndexOptions{Radius: 6},
		},
		{
			name:  "truncated materialization falls back correctly",
			ropts: RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
			mopts: MaterializeOptions{HeadFraction: 1, MaxPerQuery: 1},
			copts: CandidateIndexOptions{Radius: 8},
		},
		{
			name:  "hub skip forces live fallback",
			ropts: RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
			mopts: MaterializeOptions{HeadFraction: 0.3},
			copts: CandidateIndexOptions{Radius: 8, MaxPostings: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ing, live, accel := accelWorld(t, tc.ropts, tc.mopts, tc.copts)
			assertIdentical(t, ing, live, accel)
		})
	}
}

func TestAcceleratedPathsActuallyFire(t *testing.T) {
	ing, live, accel := accelWorld(t,
		RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
		MaterializeOptions{HeadFraction: 1},
		CandidateIndexOptions{Radius: 8})
	assertIdentical(t, ing, live, accel)
	liveN, matN, idxN := accel.PathCounts()
	if matN == 0 {
		t.Error("materialized path never fired despite full-head store")
	}
	// k=0 on truncation-free entries is materialized; the index only
	// catches concepts outside the head. With HeadFraction 1 every flagged
	// concept is materialized, so the index path fires for unflagged query
	// concepts (which still have flagged neighbours).
	if idxN == 0 {
		t.Error("indexed path never fired")
	}
	t.Logf("paths: live=%d materialized=%d indexed=%d", liveN, matN, idxN)
	wl, wm, wi := live.PathCounts()
	if wm != 0 || wi != 0 {
		t.Errorf("live relaxer counted accelerated paths: live=%d mat=%d idx=%d", wl, wm, wi)
	}
}

func TestTracedBatchMatchesSequential(t *testing.T) {
	ing, live, accel := accelWorld(t,
		RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
		MaterializeOptions{HeadFraction: 1},
		CandidateIndexOptions{Radius: 8})
	var queries []Request
	for _, q := range ing.Graph.ConceptIDs() {
		for _, qctx := range queryContexts(ing) {
			queries = append(queries, Request{Concept: q, UseConcept: true, Ctx: qctx, K: 3})
		}
	}
	queries = append(queries, Request{Term: "no such term"})
	want := live.RelaxBatch(context.Background(), queries)
	got := accel.RelaxBatch(context.Background(), queries)
	sawMat := false
	for i := range queries {
		if (want[i].Err == nil) != (got[i].Err == nil) {
			t.Fatalf("item %d: err mismatch: %v vs %v", i, want[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(want[i].Results, got[i].Results) {
			t.Fatalf("item %d (path %s): results diverge", i, got[i].Path)
		}
		if got[i].Err == nil && got[i].Path == PathMaterialized {
			sawMat = true
		}
	}
	if !sawMat {
		t.Error("no batch item was served from the materialized store")
	}
}

func TestSetMaterializedRejectsMismatchedOptions(t *testing.T) {
	ing, _, _ := accelWorld(t,
		RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
		MaterializeOptions{HeadFraction: 1},
		CandidateIndexOptions{Radius: 8})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	other := NewRelaxer(ing, sim, exactMapper{ing.Graph}, RelaxOptions{Radius: 2, DynamicRadius: true, MaxRadius: 8})
	if other.SetMaterialized(ing.Materialized) {
		t.Error("SetMaterialized accepted a store built under different options")
	}
	if other.SetMaterialized(nil) {
		t.Error("SetMaterialized accepted nil")
	}
}

func TestSetCandidateIndexRejectsNarrowIndex(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{CandidateIndex: CandidateIndexOptions{Enabled: true, Radius: 2}})
	if ing.Candidates == nil {
		t.Fatal("ingest did not build candidate index")
	}
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	r := NewRelaxer(ing, sim, exactMapper{ing.Graph}, RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8})
	if r.SetCandidateIndex(ing.Candidates) {
		t.Error("SetCandidateIndex accepted an index narrower than the serving radius")
	}
	if r.SetCandidateIndex(nil) {
		t.Error("SetCandidateIndex accepted nil")
	}
}

// TestSetCandidateIndexRejectsForeignPositions: an index's hits are slots of
// one flagged set and nodes of one graph, good for a relaxer over exactly
// those.
func TestSetCandidateIndexRejectsForeignPositions(t *testing.T) {
	worlds := oracleWorlds(t)
	ing, other := worlds["seed5"], worlds["seed11"]
	relaxer := func(ing *Ingestion) *Relaxer {
		return NewRelaxer(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology), nil, RelaxOptions{Radius: 2})
	}
	index := BuildCandidateIndex(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology), CandidateIndexOptions{Radius: 2})
	if !relaxer(ing).SetCandidateIndex(index) {
		t.Fatal("SetCandidateIndex refused an index over its own ingestion")
	}
	if relaxer(other).SetCandidateIndex(index) {
		t.Error("SetCandidateIndex accepted an index built over another world")
	}
	// The same columns adopted over a flagged set one concept short, and over
	// node ids one concept short: valid where adopted, foreign to the relaxer.
	d, flagged, nodes := index.FlatData(), ing.maps.Flagged, ing.Graph.FlatData().IDs
	for what, adopt := range map[string][2][]eks.ConceptID{
		"flagged set": {append(slices.Clone(flagged), nodes[len(nodes)-1]+1), nodes},
		"node ids":    {flagged, append(slices.Clone(nodes), nodes[len(nodes)-1]+1)},
	} {
		foreign, err := OpenFlatCandidateIndex(d, adopt[0], adopt[1])
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if relaxer(ing).SetCandidateIndex(foreign) {
			t.Errorf("SetCandidateIndex accepted an index adopted over another %s", what)
		}
	}
}

// TestMaterializeTopKRefusesWhatCandidatesCannotHold: a hop ceiling past the
// hop byte gets no store rather than one with truncated distances, and a
// store's slots are good for its own ingestion's flagged set only.
func TestMaterializeTopKRefusesWhatCandidatesCannotHold(t *testing.T) {
	ing, live, _ := accelWorld(t,
		RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
		MaterializeOptions{HeadFraction: 1},
		CandidateIndexOptions{Radius: 8})
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	wide := RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: matMaxHops + 1}
	if m := MaterializeTopK(ing, sim, MaterializeOptions{Relax: wide}); m != nil {
		t.Errorf("MaterializeTopK built a store of %d entries under a max radius of %d", m.Entries(), wide.MaxRadius)
	}
	other := generatedIngestion(t, 11, 2, 20, false, IngestOptions{})
	osim := NewSimilarity(other.Graph, other.Frequencies, other.Ontology)
	if NewRelaxer(other, osim, nil, live.Options()).SetMaterialized(ing.Materialized) {
		t.Error("SetMaterialized accepted a store whose slots index another ingestion's flagged set")
	}
}

func TestMaterializeHeadSelection(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	opts := MaterializeOptions{HeadFraction: 0.5, HeadMax: 2}.withDefaults()
	head := headConcepts(ing, opts)
	if len(head) != 2 {
		t.Fatalf("head size %d, want 2 (HeadMax cap)", len(head))
	}
	// fever (7) and headache (5) dominate the shared corpus.
	want := map[eks.ConceptID]bool{5: true, 7: true}
	for _, id := range head {
		if !want[id] {
			t.Errorf("unexpected head concept %d", id)
		}
	}
}
