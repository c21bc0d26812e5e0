package persist

import (
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/ontology"
)

// accelRelax is the serving configuration the acceleration fixtures are
// built under — it must match the relaxer options used when attaching the
// restored stores.
var accelRelax = core.RelaxOptions{Radius: 3, DynamicRadius: true, MaxRadius: 8}

// accelFixture builds an acceleration-carrying ingestion once per process.
// Every test that asks for one only reads it — saves it, restores the bytes,
// compares answers against it — so they share it instead of each rebuilding
// the same world; a test that needs to mutate an ingestion calls
// buildIngestion for a private one.
type accelFixture struct {
	mat core.MaterializeOptions
	idx core.CandidateIndexOptions

	once sync.Once
	ing  *core.Ingestion
}

func (f *accelFixture) get(t testing.TB) *core.Ingestion {
	t.Helper()
	f.once.Do(func() {
		ing := buildIngestion(t)
		sim := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
		ing.Materialized = core.MaterializeTopK(ing, sim, f.mat)
		ing.Candidates = core.BuildCandidateIndex(ing, sim, f.idx)
		f.ing = ing
	})
	if f.ing == nil {
		t.Fatal("the shared acceleration fixture failed to build in an earlier test")
	}
	return f.ing
}

// fullAccelFixture is buildIngestion with both offline accelerations enabled,
// covering the flat bundle's materialized and candidate-index sections.
var fullAccelFixture = accelFixture{
	mat: core.MaterializeOptions{Enabled: true, Relax: accelRelax, HeadFraction: 1},
	idx: core.CandidateIndexOptions{Enabled: true, Radius: 8},
}

// smallAccelFixture carries both accelerations but keeps them tiny (small
// materialized head, tight candidate radius and posting cap) so fuzz seeds
// built from it stay well under the fuzzer's shared-memory cap even in the
// fixed-width flat encoding.
var smallAccelFixture = accelFixture{
	mat: core.MaterializeOptions{Enabled: true, Relax: accelRelax, HeadFraction: 0.02},
	idx: core.CandidateIndexOptions{Enabled: true, Radius: 2, MaxPostings: 8},
}

func buildAccelIngestion(t testing.TB) *core.Ingestion      { return fullAccelFixture.get(t) }
func buildSmallAccelIngestion(t testing.TB) *core.Ingestion { return smallAccelFixture.get(t) }

// assertAccelServes attaches the restored stores to a fresh relaxer and
// checks a relaxation spot-sample against the pure-live answers.
func assertAccelServes(t *testing.T, ing, restored *core.Ingestion) {
	t.Helper()
	if restored.Materialized == nil {
		t.Fatal("restored bundle lost the materialized store")
	}
	if restored.Candidates == nil {
		t.Fatal("restored bundle lost the candidate index")
	}
	if got, want := restored.Materialized.Entries(), ing.Materialized.Entries(); got != want {
		t.Fatalf("restored %d materialized entries, want %d", got, want)
	}
	if got, want := restored.Candidates.Postings(), ing.Candidates.Postings(); got != want {
		t.Fatalf("restored %d postings, want %d", got, want)
	}
	live := core.NewRelaxer(restored,
		core.NewSimilarity(restored.Graph, restored.Frequencies, restored.Ontology),
		exactMapper{restored.Graph}, accelRelax)
	accel := core.NewRelaxer(restored,
		core.NewSimilarity(restored.Graph, restored.Frequencies, restored.Ontology),
		exactMapper{restored.Graph}, accelRelax)
	if !accel.SetMaterialized(restored.Materialized) {
		t.Fatal("restored materialized store refused by matching relaxer")
	}
	if !accel.SetCandidateIndex(restored.Candidates) {
		t.Fatal("restored candidate index refused by matching relaxer")
	}
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	flagged := restored.FlaggedIDs()
	if len(flagged) == 0 {
		t.Fatal("restored bundle has no flagged concepts to probe")
	}
	if len(flagged) > 25 {
		flagged = flagged[:25]
	}
	for _, q := range flagged {
		for _, k := range []int{0, 3, 10} {
			want := live.RelaxConcept(q, ctx, k)
			got := accel.RelaxConcept(q, ctx, k)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query %d k %d: restored accelerations diverge from live", q, k)
			}
		}
	}
}

// TestInspectReportsStoreDepth holds InspectFile's summary of the materialized
// store — read off two sections, no ingestion restored — against the columns
// of the store that was saved, cut at the default depth and uncut; a bundle
// without a store reports none.
func TestInspectReportsStoreDepth(t *testing.T) {
	uncut := buildIngestion(t)
	uncut.Materialized = core.MaterializeTopK(uncut, core.NewSimilarity(uncut.Graph, uncut.Frequencies, uncut.Ontology),
		core.MaterializeOptions{Relax: accelRelax, HeadMax: 3, MaxPerQuery: -1})
	for name, ing := range map[string]*core.Ingestion{"default depth": buildAccelIngestion(t), "uncut": uncut, "no store": buildIngestion(t)} {
		path := filepath.Join(t.TempDir(), "bundle.flat")
		if err := SaveFileAtomic(path, ing, FormatFlat); err != nil {
			t.Fatal(err)
		}
		info, err := InspectFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if ing.Materialized == nil {
			if info.Store != nil {
				t.Errorf("%s: InspectFile reports store %+v", name, info.Store)
			}
			continue
		}
		d := ing.Materialized.FlatData()
		want := StoreDepth{Entries: len(d.Concepts), Candidates: len(d.CandSlots)}
		depths := make([]int, len(d.Concepts))
		for i := range depths {
			depths[i] = int(d.CandOff[i+1] - d.CandOff[i])
			want.Complete += int(d.Complete[i])
		}
		slices.Sort(depths)
		want.MaxDepth, want.MedianDepth = depths[len(depths)-1], depths[len(depths)/2]
		if info.Store == nil || *info.Store != want {
			t.Errorf("%s: InspectFile reports store %+v, the saved columns say %+v", name, info.Store, want)
		}
		if cut := name == "default depth"; cut != (want.MaxDepth == 64 && want.Complete == 0) || cut == (want.Complete == want.Entries) {
			t.Errorf("%s: the fixture's store is %+v", name, want)
		}
	}
}
