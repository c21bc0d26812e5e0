package core

import (
	"context"
	"reflect"
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
	var queries []BatchQuery
	for _, q := range ing.Graph.ConceptIDs() {
		for _, qctx := range queryContexts(ing) {
			queries = append(queries, BatchQuery{Concept: q, UseConcept: true, Ctx: qctx, K: 3})
		}
	}
	queries = append(queries, BatchQuery{Term: "no such term"})
	wantRes, wantErrs := live.RelaxBatchContext(context.Background(), queries)
	gotRes, paths, gotErrs := accel.RelaxBatchContextTraced(context.Background(), queries)
	for i := range queries {
		if (wantErrs[i] == nil) != (gotErrs[i] == nil) {
			t.Fatalf("item %d: err mismatch: %v vs %v", i, wantErrs[i], gotErrs[i])
		}
		if !reflect.DeepEqual(wantRes[i], gotRes[i]) {
			t.Fatalf("item %d (path %s): results diverge", i, paths[i])
		}
	}
	sawMat := false
	for i, p := range paths {
		if gotErrs[i] == nil && p == PathMaterialized {
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

func TestMaterializedSnapshotRoundTrip(t *testing.T) {
	ing, live, _ := accelWorld(t,
		RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
		MaterializeOptions{HeadFraction: 1},
		CandidateIndexOptions{Radius: 8})
	snap := ing.Materialized.Snapshot()
	restored, err := RestoreMaterialized(snap, ing.maps.Flagged)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Entries() != ing.Materialized.Entries() {
		t.Fatalf("restored %d entries, want %d", restored.Entries(), ing.Materialized.Entries())
	}
	accel := NewRelaxer(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology),
		exactMapper{ing.Graph}, live.Options())
	if !accel.SetMaterialized(restored) {
		t.Fatal("restored store refused by an identically configured relaxer")
	}
	assertIdentical(t, ing, live, accel)
}

func TestCandidateIndexSnapshotRoundTrip(t *testing.T) {
	ing, live, _ := accelWorld(t,
		RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
		MaterializeOptions{HeadFraction: 1},
		CandidateIndexOptions{Radius: 8})
	snap := ing.Candidates.Snapshot()
	restored, err := RestoreCandidateIndex(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Postings() != ing.Candidates.Postings() {
		t.Fatalf("restored %d postings, want %d", restored.Postings(), ing.Candidates.Postings())
	}
	accel := NewRelaxer(ing, NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology),
		exactMapper{ing.Graph}, live.Options())
	if !accel.SetCandidateIndex(restored) {
		t.Fatal("restored index refused by an identically configured relaxer")
	}
	assertIdentical(t, ing, live, accel)
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

func TestRestoreMaterializedRejectsCorruption(t *testing.T) {
	ing, _, _ := accelWorld(t,
		RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
		MaterializeOptions{HeadFraction: 1},
		CandidateIndexOptions{Radius: 8})
	base := ing.Materialized.Snapshot()
	if len(base.Entries) == 0 || len(base.Entries[0].Cands) < 2 {
		t.Fatal("fixture too small to corrupt meaningfully")
	}
	mutate := []struct {
		name string
		fn   func(s *MaterializedSnapshot)
	}{
		{"non-normalized options", func(s *MaterializedSnapshot) { s.Relax.MaxRadius = 0 }},
		{"duplicate entry", func(s *MaterializedSnapshot) { s.Entries = append(s.Entries, s.Entries[0]) }},
		{"wrong counts length", func(s *MaterializedSnapshot) { s.Entries[0].Counts = s.Entries[0].Counts[:1] }},
		{"hops beyond max radius", func(s *MaterializedSnapshot) { s.Entries[0].Cands[0].Hops = 99 }},
		{"hops beyond a byte", func(s *MaterializedSnapshot) { s.Entries[0].Cands[0].Hops = 256 + 1 }},
		{"negative hops", func(s *MaterializedSnapshot) { s.Entries[0].Cands[0].Hops = -1 }},
		{"candidate not flagged", func(s *MaterializedSnapshot) { s.Entries[0].Cands[0].Concept = -7 }},
		{"ranking order violated", func(s *MaterializedSnapshot) {
			s.Entries[0].Cands[0], s.Entries[0].Cands[1] = s.Entries[0].Cands[1], s.Entries[0].Cands[0]
		}},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			snap := cloneMatSnapshot(base)
			m.fn(snap)
			if _, err := RestoreMaterialized(snap, ing.maps.Flagged); err == nil {
				t.Error("RestoreMaterialized accepted a corrupt snapshot")
			}
		})
	}
}

func TestRestoreCandidateIndexRejectsCorruption(t *testing.T) {
	ing, _, _ := accelWorld(t,
		RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8},
		MaterializeOptions{HeadFraction: 1},
		CandidateIndexOptions{Radius: 8})
	base := ing.Candidates.Snapshot()
	var rich int = -1
	for i, ls := range base.Lists {
		if len(ls.Postings) >= 2 {
			rich = i
			break
		}
	}
	if rich < 0 {
		t.Fatal("fixture has no posting list with >= 2 entries")
	}
	mutate := []struct {
		name string
		fn   func(s *CandidateIndexSnapshot)
	}{
		{"zero radius", func(s *CandidateIndexSnapshot) { s.Radius = 0 }},
		{"duplicate list", func(s *CandidateIndexSnapshot) { s.Lists = append(s.Lists, s.Lists[rich]) }},
		{"hops out of range", func(s *CandidateIndexSnapshot) { s.Lists[rich].Postings[0].Hops = s.Radius + 1 }},
		{"hop order violated", func(s *CandidateIndexSnapshot) {
			s.Lists[rich].Postings[0].Hops = s.Radius
			s.Lists[rich].Postings[1].Hops = 1
		}},
		{"negative geometry", func(s *CandidateIndexSnapshot) { s.Lists[rich].Postings[0].Gen = -1 }},
		{"LCS not ascending", func(s *CandidateIndexSnapshot) {
			ps := &s.Lists[rich].Postings[0]
			ps.LCS = []eks.ConceptID{5, 5}
		}},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			snap := cloneIdxSnapshot(base)
			m.fn(snap)
			if _, err := RestoreCandidateIndex(snap); err == nil {
				t.Error("RestoreCandidateIndex accepted a corrupt snapshot")
			}
		})
	}
}

func cloneMatSnapshot(s *MaterializedSnapshot) *MaterializedSnapshot {
	out := &MaterializedSnapshot{Relax: s.Relax, Entries: make([]MaterializedEntrySnapshot, len(s.Entries))}
	for i, e := range s.Entries {
		e.Counts = append([]int32(nil), e.Counts...)
		e.Cands = append([]MaterializedCandidate(nil), e.Cands...)
		out.Entries[i] = e
	}
	return out
}

func cloneIdxSnapshot(s *CandidateIndexSnapshot) *CandidateIndexSnapshot {
	out := &CandidateIndexSnapshot{Radius: s.Radius, Lists: make([]CandidateListSnapshot, len(s.Lists))}
	for i, ls := range s.Lists {
		ls.Postings = append([]PostingSnapshot(nil), ls.Postings...)
		for j := range ls.Postings {
			ls.Postings[j].LCS = append([]eks.ConceptID(nil), ls.Postings[j].LCS...)
		}
		out.Lists[i] = ls
	}
	return out
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
