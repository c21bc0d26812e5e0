package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/corpus"
	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/medkb"
	"medrelax/internal/ontology"
	"medrelax/internal/synthkb"
)

// buildIngestion produces a realistic ingestion over a small synthetic
// world. testing.TB so the fuzz harness can share it.
func buildIngestion(t testing.TB) *core.Ingestion {
	t.Helper()
	world, err := synthkb.Generate(synthkb.Config{Seed: 31, ConditionsPerPair: 2})
	if err != nil {
		t.Fatal(err)
	}
	med, err := medkb.Generate(world, medkb.Config{Seed: 32, Drugs: 25})
	if err != nil {
		t.Fatal(err)
	}
	corp := medkb.BuildCorpus(world, med, medkb.CorpusConfig{Seed: 33})
	ing, err := core.Ingest(med.Ontology, med.Store, world.Graph, corp, exactMapper{world.Graph}, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

type exactMapper struct{ g *eks.Graph }

func (m exactMapper) Name() string { return "EXACT" }
func (m exactMapper) Map(name string) (eks.ConceptID, bool) {
	ids := m.g.LookupName(name)
	if len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}

func TestRoundTrip(t *testing.T) {
	ing := buildIngestion(t)
	var buf bytes.Buffer
	if err := Save(&buf, ing); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Structural equality.
	if restored.Graph.Len() != ing.Graph.Len() || restored.Graph.EdgeCount() != ing.Graph.EdgeCount() {
		t.Errorf("graph: %d/%d vs %d/%d", restored.Graph.Len(), restored.Graph.EdgeCount(), ing.Graph.Len(), ing.Graph.EdgeCount())
	}
	if restored.Graph.ShortcutCount() != ing.Graph.ShortcutCount() {
		t.Errorf("shortcuts: %d vs %d", restored.Graph.ShortcutCount(), ing.Graph.ShortcutCount())
	}
	if restored.Store.Len() != ing.Store.Len() {
		t.Errorf("instances: %d vs %d", restored.Store.Len(), ing.Store.Len())
	}
	if restored.MappingCount() != ing.MappingCount() || restored.FlaggedCount() != ing.FlaggedCount() {
		t.Errorf("mappings/flags differ")
	}
	if len(restored.Contexts) != len(ing.Contexts) {
		t.Errorf("contexts: %d vs %d", len(restored.Contexts), len(ing.Contexts))
	}
	if restored.ShortcutsAdded != ing.ShortcutsAdded {
		t.Errorf("shortcutsAdded: %d vs %d", restored.ShortcutsAdded, ing.ShortcutsAdded)
	}

	// Behavioural equality: identical relaxation results on both sides.
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	simA := core.NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	simB := core.NewSimilarity(restored.Graph, restored.Frequencies, restored.Ontology)
	relA := core.NewRelaxer(ing, simA, exactMapper{ing.Graph}, core.RelaxOptions{Radius: 3})
	relB := core.NewRelaxer(restored, simB, exactMapper{restored.Graph}, core.RelaxOptions{Radius: 3})
	checked := 0
	for _, q := range ing.FlaggedIDs() {
		if checked == 25 {
			break
		}
		checked++
		a := relA.RelaxConcept(q, ctx, 0)
		b := relB.RelaxConcept(q, ctx, 0)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i].Concept != b[i].Concept || a[i].Score != b[i].Score {
				t.Fatalf("query %d rank %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestRoundTripDeterministicBytes(t *testing.T) {
	ing := buildIngestion(t)
	var a, b bytes.Buffer
	if err := Save(&a, ing); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, ing); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialization is not byte-deterministic")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"not json":    "hello",
		"wrong shape": `{"version": 1, "eksEdges": "nope"}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Load must fail", name)
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version must fail")
	}
}

func TestLoadRejectsDanglingMapping(t *testing.T) {
	ing := buildIngestion(t)
	var buf bytes.Buffer
	if err := Save(&buf, ing); err != nil {
		t.Fatal(err)
	}
	// Point one mapping at a concept the graph does not contain, then
	// re-checksum: the corruption must be caught by restore-time
	// validation, not the CRC.
	var b Bundle
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Mappings) == 0 {
		t.Fatal("bundle has no mappings")
	}
	b.Mappings[0].Concept = 1 << 40
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
		t.Fatal("dangling mapping must fail")
	}
	if !errors.Is(err, ErrCorruptBundle) {
		t.Errorf("dangling mapping error is not ErrCorruptBundle: %v", err)
	}
}

func TestFrequencySnapshotRoundTrip(t *testing.T) {
	ing := buildIngestion(t)
	snap := ing.Frequencies.Snapshot()
	restored, err := core.RestoreFrequencyTable(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range snap.Labels {
		for i, id := range ls.IDs {
			if got := restored.Raw(id, ls.Label); got != ls.Values[i] {
				t.Fatalf("raw(%d, %s) = %v, want %v", id, ls.Label, got, ls.Values[i])
			}
		}
	}
	// Aggregate is rebuilt.
	for _, ls := range snap.Labels {
		for _, id := range ls.IDs {
			if restored.RawAggregate(id) != ing.Frequencies.RawAggregate(id) {
				t.Fatalf("aggregate mismatch for %d", id)
			}
		}
	}
	// Malformed snapshot rejected.
	bad := core.FrequencySnapshot{Labels: []core.FrequencyLabelSnapshot{{Label: "x", IDs: []eks.ConceptID{1}, Values: nil}}}
	if _, err := core.RestoreFrequencyTable(bad); err == nil {
		t.Error("mismatched snapshot must fail")
	}
	_ = kb.InstanceID(0)
	_ = corpus.Document{}
}

// TestJSONStillLoads: v1 remains the inspection format — a JSON bundle must
// keep loading through a stream, sniffed by its first byte and not by a file
// name, to an ingestion that serializes to the same document.
func TestJSONStillLoads(t *testing.T) {
	var first, again bytes.Buffer
	if err := Save(&first, buildIngestion(t)); err != nil {
		t.Fatal(err)
	}
	if first.Bytes()[0] != '{' {
		t.Fatal("a JSON bundle opens with an object")
	}
	want := append([]byte(nil), first.Bytes()...)
	restored, err := Load(&first)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(&again, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Errorf("re-serialized bundle differs (%d vs %d bytes)", again.Len(), len(want))
	}
}

func TestLoadFileRoundTrip(t *testing.T) {
	ing := buildIngestion(t)
	path := filepath.Join(t.TempDir(), "bundle.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(f, ing); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Graph.Len() != ing.Graph.Len() {
		t.Errorf("graph len = %d, want %d", restored.Graph.Len(), ing.Graph.Len())
	}
	if err := ValidateForServing(restored); err != nil {
		t.Errorf("ValidateForServing on a real bundle: %v", err)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Fatal("missing file loaded without error")
	}
}

func TestValidateForServingRejects(t *testing.T) {
	ing := buildIngestion(t)
	if err := ValidateForServing(nil); err == nil {
		t.Error("nil ingestion validated")
	}
	cases := []struct {
		name   string
		mutate func(*core.Ingestion)
	}{
		{"no flagged concepts", func(i *core.Ingestion) {
			empty, err := core.NewFlatIngestion(i.Contexts, i.Graph, i.Store, i.Ontology, i.Frequencies, 0, core.MappingsFromPairs(nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			*i = *empty
		}},
		{"nil frequencies", func(i *core.Ingestion) { i.Frequencies = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Shallow copy: each case replaces fields wholesale, never
			// mutating the shared originals.
			cp := *ing
			tc.mutate(&cp)
			if err := ValidateForServing(&cp); err == nil {
				t.Fatalf("%s validated", tc.name)
			}
		})
	}
	if err := ValidateForServing(ing); err != nil {
		t.Errorf("pristine ingestion rejected: %v", err)
	}
	// A flagged concept without instances cannot be assembled at all.
	d := ing.FlatMappings()
	d.InstOff = append([]int32{0, 0}, d.InstOff[2:]...)
	if _, err := core.NewFlatIngestion(ing.Contexts, ing.Graph, ing.Store, ing.Ontology, ing.Frequencies, 0, d); err == nil {
		t.Error("flagged concept without instances assembled")
	}
}
