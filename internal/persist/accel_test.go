package persist

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/match"
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
		match.NewExact(restored.Graph), accelRelax)
	accel := core.NewRelaxer(restored,
		core.NewSimilarity(restored.Graph, restored.Frequencies, restored.Ontology),
		match.NewExact(restored.Graph), accelRelax)
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
		want.Repeated, want.RepeatedBytes = repeatsByPairs(d)
		if info.Store == nil || *info.Store != want {
			t.Errorf("%s: InspectFile reports store %+v, the saved columns say %+v", name, info.Store, want)
		}
		if cut := name == "default depth"; cut != (want.MaxDepth == 64 && want.Complete == 0) || cut == (want.Complete == want.Entries) {
			t.Errorf("%s: the fixture's store is %+v", name, want)
		}
	}
}

// repeatsByPairs counts, by comparing every pair of a concept's entries, the
// entries byte-equal to an earlier one of the same concept, and their
// candidate bytes.
func repeatsByPairs(d core.FlatMaterializedData) (entries, bytes int) {
	entry := func(i int) (counts []int32, scores []float64, slots []uint32) {
		return d.Counts[d.CountOff[i]:d.CountOff[i+1]], d.CandScores[d.CandOff[i]:d.CandOff[i+1]], d.CandSlots[d.CandOff[i]:d.CandOff[i+1]]
	}
	for i := range d.Concepts {
		ci, si, li := entry(i)
		for j := 0; j < i; j++ {
			cj, sj, lj := entry(j)
			if d.Concepts[j] == d.Concepts[i] && slices.Equal(ci, cj) && slices.Equal(li, lj) &&
				slices.EqualFunc(si, sj, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				entries, bytes = entries+1, bytes+12*len(li)
				break
			}
		}
	}
	return entries, bytes
}

// TestInspectCountsRepeatedEntries saves a store whose repeats are known — two
// concepts, three contexts each: a context that repeats its concept's first
// entry, one that holds a prefix of it, and one that holds the other
// concept's entry — and reads two repeats and their candidate bytes back.
func TestInspectCountsRepeatedEntries(t *testing.T) {
	ing := buildAccelIngestion(t)
	src := ing.Materialized.FlatData()
	// The first entries of two concepts with at least two candidates each.
	var firsts []int
	for i := range src.Concepts {
		if (i == 0 || src.Concepts[i] != src.Concepts[i-1]) && src.CandOff[i+1]-src.CandOff[i] >= 2 {
			firsts = append(firsts, i)
		}
	}
	if len(firsts) < 2 {
		t.Fatalf("the fixture's store has %d concepts with two candidates", len(firsts))
	}
	a, b := firsts[0], firsts[1]
	d := core.FlatMaterializedData{Relax: src.Relax, CountOff: []int32{0}, CandOff: []int32{0}}
	add := func(concept, from int, ctx string, cands int32) {
		d.Concepts = append(d.Concepts, src.Concepts[concept])
		d.Ctxs = append(d.Ctxs, ctx)
		d.Complete = append(d.Complete, 0)
		d.Counts = append(d.Counts, src.Counts[src.CountOff[concept]:src.CountOff[concept+1]]...)
		d.CountOff = append(d.CountOff, int32(len(d.Counts)))
		lo := src.CandOff[from]
		d.CandScores = append(d.CandScores, src.CandScores[lo:lo+cands]...)
		d.CandSlots = append(d.CandSlots, src.CandSlots[lo:lo+cands]...)
		d.CandOff = append(d.CandOff, int32(len(d.CandSlots)))
	}
	na, nb := src.CandOff[a+1]-src.CandOff[a], src.CandOff[b+1]-src.CandOff[b]
	add(a, a, "", na)
	add(a, a, "A-r-B", na)   // repeats (a, "")
	add(a, a, "C-r-D", na-1) // a prefix: not a repeat
	add(b, b, "", nb)
	add(b, b, "A-r-B", nb) // repeats (b, "")
	add(b, a, "C-r-D", na) // a's candidates under b's counts: not a repeat
	store, err := core.OpenFlatMaterialized(d, ing.FlaggedIDs())
	if err != nil {
		t.Fatal(err)
	}
	cp := *ing
	cp.Materialized = store
	path := filepath.Join(t.TempDir(), "bundle.flat")
	if err := SaveFileAtomic(path, &cp, FormatFlat); err != nil {
		t.Fatal(err)
	}
	info, err := InspectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Store == nil || info.Store.Repeated != 2 || info.Store.RepeatedBytes != 12*int(na+nb) {
		t.Errorf("InspectFile reports store %+v; want 2 repeated entries, %d candidate bytes", info.Store, 12*(na+nb))
	}

	// A file whose count offsets run past the counts, checksums restamped:
	// -inspect is for suspect files, so it reports the store without reading
	// the spans instead of panicking.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dirOff := binary.LittleEndian.Uint64(data[16:])
	for i := 0; i < int(binary.LittleEndian.Uint32(data[8:])); i++ {
		e := data[dirOff+uint64(i)*flatDirEntrySize:]
		if binary.LittleEndian.Uint32(e) != secMatCntOff {
			continue
		}
		so, sl := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		binary.LittleEndian.PutUint32(data[so+sl-4:], 1<<30)
		patchDirEntry(data, i, 24, func(f []byte) { binary.LittleEndian.PutUint32(f, sectionCRC(data[so:so+sl])) })
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err = InspectFile(path); err != nil || !info.CRCOK {
		t.Fatalf("InspectFile of the restamped file: %+v, %v", info, err)
	}
	if info.Store == nil || info.Store.Repeated != 0 {
		t.Errorf("InspectFile reports store %+v over count offsets past the pool; want one with 0 repeated", info.Store)
	}
}
