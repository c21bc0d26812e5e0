package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/synthkb"
)

// buildIngestion produces a realistic ingestion over a small synthetic
// world. testing.TB so the fuzz harness can share it.
func buildIngestion(t testing.TB) *core.Ingestion {
	t.Helper()
	world, med, corp, err := medkb.GenerateWorld(31, synthkb.Config{ConditionsPerPair: 2}, medkb.Config{Drugs: 25})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := core.Ingest(med.Ontology, med.Store, world.Graph, corp, match.NewExact(world.Graph), core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

// loadBytes is LoadFile over bytes in memory: the head classifier, then the
// flat decoder over an aligned heap copy, where LoadFile maps the file.
func loadBytes(data []byte) (*core.Ingestion, error) {
	if _, _, err := classifyHead(data[:min(len(data), flatHeaderSize)]); err != nil {
		return nil, err
	}
	buf := alignedBytes(len(data))
	copy(buf, data)
	return openFlatBytes(buf, &mapRef{size: int64(len(buf))})
}

// writeBundle writes bytes to a file under a name that says nothing of them.
func writeBundle(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRoundTrip takes an ingestion through a bundle opened from a heap copy,
// the path a bundle takes where no mapping is to be had.
func TestRoundTrip(t *testing.T) {
	ing := buildIngestion(t)
	restored, err := loadBytes(saveFlatBytes(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Backing == nil || restored.Backing.Mapped() {
		t.Errorf("a bundle opened from a heap copy reports backing %v", restored.Backing)
	}

	// Structural equality.
	if restored.Graph.Len() != ing.Graph.Len() || restored.Graph.EdgeCount() != ing.Graph.EdgeCount() {
		t.Errorf("graph: %d/%d vs %d/%d", restored.Graph.Len(), restored.Graph.EdgeCount(), ing.Graph.Len(), ing.Graph.EdgeCount())
	}
	if !sameColumns(restored.Graph.FlatData(), ing.Graph.FlatData()) {
		t.Error("graph columns differ")
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
	assertSameRelaxations(t, ing, restored)
}

// TestRoundTripDeterministicBytes: two independent builds of the same world,
// single-source and federated, save to the same bytes.
func TestRoundTripDeterministicBytes(t *testing.T) {
	for name, build := range map[string]func(testing.TB) *core.Ingestion{"single": buildIngestion, "federated": buildFederatedIngestion} {
		if !bytes.Equal(saveFlatBytes(t, build(t)), saveFlatBytes(t, build(t))) {
			t.Errorf("%s: two builds of one world save to different bytes", name)
		}
	}
}

// TestLoadRejectsGarbage: what is no bundle fails typed, a JSON document of
// any shape as the retired v1 bundle.
func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]struct{ in, form string }{
		"empty":       {"", "unknown"},
		"not json":    {"hello", "unknown"},
		"wrong shape": {`{"version": 1, "eksEdges": "nope"}`, "json v1"},
	}
	for name, tc := range cases {
		_, err := LoadFile(writeBundle(t, "bundle", []byte(tc.in)))
		if !errors.Is(err, ErrCorruptBundle) || !strings.Contains(err.Error(), "("+tc.form+")") {
			t.Errorf("%s: LoadFile = %v, want ErrCorruptBundle (%s)", name, err, tc.form)
		}
	}
}

// TestLoadRejectsWrongVersion: a flat bundle of another version is refused by
// its version; a JSON document of any version is the retired v1 bundle.
func TestLoadRejectsWrongVersion(t *testing.T) {
	flat := saveFlatBytes(t, buildIngestion(t))
	binary.LittleEndian.PutUint32(flat[4:], 99)
	for doc, want := range map[string]string{string(flat): "bundle version 99", `{"version": 99}`: "json v1"} {
		if _, err := LoadFile(writeBundle(t, "bundle", []byte(doc))); !errors.Is(err, ErrCorruptBundle) || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadFile = %v, want ErrCorruptBundle saying %q", err, want)
		}
	}
}

// TestLoadRejectsDanglingMapping points one mapping at a concept the graph
// does not contain under valid checksums: restore-time validation, not a
// CRC, must catch it.
func TestLoadRejectsDanglingMapping(t *testing.T) {
	_, err := openEdited(t, buildIngestion(t), secMapCon, func(p []byte) []byte {
		binary.LittleEndian.PutUint64(p, 1<<40)
		return p
	})
	if !errors.Is(err, ErrCorruptBundle) {
		t.Errorf("dangling mapping: %v, want ErrCorruptBundle", err)
	}
}

// openEdited saves an ingestion's sections, rewrites one section's payload
// (a copy: it may alias the ingestion) and opens the result, every checksum
// valid.
func openEdited(t *testing.T, ing *core.Ingestion, kind uint32, edit func(p []byte) []byte) (*core.Ingestion, error) {
	t.Helper()
	sections, err := encodeFlat(ing)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(sections, func(s flatSection) bool { return s.kind == kind })
	if i < 0 {
		t.Fatalf("the writer emitted no %s section", flatSectionName(kind))
	}
	sections[i].payload = edit(bytes.Clone(sections[i].payload))
	data := flatBytes(t, sections)
	return openFlatBytes(data, &mapRef{size: int64(len(data))})
}

// TestFrequencySnapshotRoundTrip: the frequency table's columns come back
// from a bundle as they went in — every label's values, and the aggregate —
// and columns that disagree in length are refused.
func TestFrequencySnapshotRoundTrip(t *testing.T) {
	ing := buildIngestion(t)
	restored, err := loadBytes(saveFlatBytes(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	want, got := ing.Frequencies.FlatData(), restored.Frequencies.FlatData()
	if !sameColumns(want, got) {
		t.Fatal("the frequency columns differ after a round trip")
	}
	for _, id := range want.IDs {
		if restored.Frequencies.RawAggregate(id) != ing.Frequencies.RawAggregate(id) {
			t.Fatalf("aggregate mismatch for %d", id)
		}
	}
	_, err = openEdited(t, ing, secFreqVals, func(p []byte) []byte { return p[:len(p)-8] })
	if !errors.Is(err, ErrCorruptBundle) {
		t.Errorf("a values column one short: %v, want ErrCorruptBundle", err)
	}
}

// TestDenseFrequencyBundleStillOpens: a bundle whose label spans and
// aggregate cover every concept, zeros included — what every bundle stored
// before spans kept only the concepts with corpus evidence — opens and
// answers every frequency read with the bits of the table built today, and
// InspectFile counts its zeros where a bundle saved today has none.
func TestDenseFrequencyBundleStillOpens(t *testing.T) {
	ing := buildIngestion(t)
	sparse := ing.Frequencies
	d := sparse.FlatData()
	ids := ing.Graph.ConceptIDs()
	dense := core.FlatFrequencyData{Root: d.Root, Smoothing: d.Smoothing, Labels: d.Labels, Off: []int32{0}}
	for _, label := range d.Labels.Strings() {
		for _, id := range ids {
			dense.IDs, dense.Vals = append(dense.IDs, id), append(dense.Vals, sparse.Raw(id, label))
		}
		dense.Off = append(dense.Off, int32(len(dense.IDs)))
	}
	for _, id := range ids {
		dense.AggIDs, dense.AggVals = append(dense.AggIDs, id), append(dense.AggVals, sparse.RawAggregate(id))
	}
	zeros := 0
	for _, v := range append(slices.Clone(dense.Vals), dense.AggVals...) {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("the dense fixture stores no zero; it tells the tables apart by nothing")
	}
	ft, err := core.OpenFlatFrequencyTable(dense)
	if err != nil {
		t.Fatal(err)
	}
	old, err := core.NewFlatIngestion(ing.Contexts, ing.Graph, ing.Store, ing.Ontology, ft, ing.ShortcutsAdded, ing.FlatMappings())
	if err != nil {
		t.Fatal(err)
	}
	data := saveFlatBytes(t, old)
	restored, err := loadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Frequencies
	same := func(what string, id eks.ConceptID, want, got float64) {
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("%s of %d: %v from the dense bundle, %v built", what, id, got, want)
		}
	}
	for _, id := range append(ids, ids[len(ids)-1]+1) {
		same("RawAggregate", id, sparse.RawAggregate(id), got.RawAggregate(id))
		for _, label := range d.Labels.Strings() {
			same("Raw "+label, id, sparse.Raw(id, label), got.Raw(id, label))
		}
		same("IC", id, sparse.IC(id, nil, ing.Ontology), got.IC(id, nil, ing.Ontology))
		for i := range ing.Contexts {
			ctx := &ing.Contexts[i]
			same("IC "+ctx.String(), id, sparse.IC(id, ctx, ing.Ontology), got.IC(id, ctx, ing.Ontology))
		}
	}

	for _, tc := range []struct {
		name string
		data []byte
		want FrequencyShape
	}{
		{"dense.flat", data, FrequencyShape{d.Labels.Len(), len(dense.IDs), len(ids), zeros}},
		{"sparse.flat", saveFlatBytes(t, ing), FrequencyShape{d.Labels.Len(), len(d.IDs), len(d.AggIDs), 0}},
	} {
		info, err := InspectFile(writeBundle(t, tc.name, tc.data))
		if err != nil {
			t.Fatal(err)
		}
		if info.Frequencies == nil || *info.Frequencies != tc.want {
			t.Errorf("%s: frequency table %+v, want %+v", tc.name, info.Frequencies, tc.want)
		}
	}
}

// TestJSONStillLoads: a JSON document still gets as far as the head
// classifier, which knows it by its first byte — not by the file's name, nor
// past leading whitespace — and names it; nothing decodes it further.
func TestJSONStillLoads(t *testing.T) {
	doc := append([]byte("\n  "), readFixture(t, "retired-v1.json")...)
	path := writeBundle(t, "bundle.flat", doc)
	if _, err := LoadFile(path); !errors.Is(err, ErrCorruptBundle) || !strings.Contains(err.Error(), "(json v1)") {
		t.Errorf("LoadFile = %v, want the retired json v1 refusal", err)
	}
	if info, err := InspectFile(path); err == nil || info == nil || info.Format != "json v1" {
		t.Errorf("InspectFile = %+v, %v, want json v1 and the refusal", info, err)
	}
}

// TestLoadFileRoundTrip: a flat bundle loads whatever it is called.
func TestLoadFileRoundTrip(t *testing.T) {
	ing := buildIngestion(t)
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := SaveFileAtomic(path, ing, FormatFlat); err != nil {
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
