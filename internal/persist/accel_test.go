package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
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
// covering the v3 bundle sections.
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

func TestAccelRoundTripBinary(t *testing.T) {
	ing := buildAccelIngestion(t)
	var buf bytes.Buffer
	if err := SaveBinary(&buf, ing); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[len(binaryMagic)]; v != versionBinaryAccel {
		t.Fatalf("bundle with accelerations saved as version %d, want %d", v, versionBinaryAccel)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertAccelServes(t, ing, restored)
}

func TestAccelRoundTripJSON(t *testing.T) {
	ing := buildAccelIngestion(t)
	var buf bytes.Buffer
	if err := Save(&buf, ing); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertAccelServes(t, ing, restored)
}

func TestAccelFreeBundleStaysV2(t *testing.T) {
	ing := buildIngestion(t)
	var buf bytes.Buffer
	if err := SaveBinary(&buf, ing); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[len(binaryMagic)]; v != VersionBinary {
		t.Fatalf("acceleration-free bundle saved as version %d, want %d", v, VersionBinary)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Materialized != nil || restored.Candidates != nil {
		t.Error("acceleration-free bundle restored phantom accelerations")
	}
}

func TestAccelBinaryDeterministicBytes(t *testing.T) {
	ing := buildAccelIngestion(t)
	var a, b bytes.Buffer
	if err := SaveBinary(&a, ing); err != nil {
		t.Fatal(err)
	}
	if err := SaveBinary(&b, ing); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("v3 serialization is not byte-deterministic")
	}
}

func TestAccelBinarySectionCorruptionFailsLoudly(t *testing.T) {
	ing := buildAccelIngestion(t)
	base, err := buildBundle(ing)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Materialized.Entries) == 0 || len(base.Materialized.Entries[0].Cands) < 2 {
		t.Fatal("fixture too small to corrupt meaningfully")
	}
	// Semantic corruption with a valid CRC: the header checksum passes, so
	// only restore-time validation of the section can catch it.
	mutate := []struct {
		name string
		fn   func(b *Bundle)
	}{
		{"materialized ranking order", func(b *Bundle) {
			cands := b.Materialized.Entries[0].Cands
			cands[0], cands[1] = cands[1], cands[0]
		}},
		{"materialized counts length", func(b *Bundle) {
			b.Materialized.Entries[0].Counts = b.Materialized.Entries[0].Counts[:1]
		}},
		{"candidate index radius", func(b *Bundle) {
			b.Candidates.Radius = 0
		}},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			b, err := buildBundle(ing)
			if err != nil {
				t.Fatal(err)
			}
			m.fn(b)
			_, err = Load(bytes.NewReader(encodeBinaryStream(b)))
			if err == nil {
				t.Fatal("corrupted acceleration section loaded without error")
			}
			if !errors.Is(err, ErrCorruptBundle) {
				t.Errorf("corruption error is not ErrCorruptBundle: %v", err)
			}
		})
	}
	// Bit-flip inside the v3 section area: the CRC catches it.
	var buf bytes.Buffer
	if err := SaveBinary(&buf, ing); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	bad := append([]byte{}, data...)
	bad[len(bad)-3] ^= 0xFF
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bit-flipped v3 bundle loaded without error")
	} else if !errors.Is(err, ErrCorruptBundle) {
		t.Errorf("bit-flip error is not ErrCorruptBundle: %v", err)
	}
}

func TestAccelJSONSectionCorruptionFailsLoudly(t *testing.T) {
	ing := buildAccelIngestion(t)
	var buf bytes.Buffer
	if err := Save(&buf, ing); err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Materialized == nil || len(b.Materialized.Entries) == 0 {
		t.Fatal("JSON bundle lost the materialized section")
	}
	b.Materialized.Entries[0].Cands[0].Hops = 99
	b.CRC32 = 0
	raw, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	b.CRC32 = crc32.ChecksumIEEE(raw)
	raw, err = json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("corrupted materialized JSON section loaded without error")
	}
	if !errors.Is(err, ErrCorruptBundle) {
		t.Errorf("corruption error is not ErrCorruptBundle: %v", err)
	}
}
