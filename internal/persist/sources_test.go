package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/synthkb"
)

// decodeBundleForTest / reencodeBundleForTest open a saved v1 document for
// deliberate mutation and re-stamp its checksum, so only restore-time
// validation can catch the damage.
func decodeBundleForTest(raw []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

func reencodeBundleForTest(t *testing.T, b *Bundle) []byte {
	t.Helper()
	b.CRC32 = 0
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	b.CRC32 = crc32.ChecksumIEEE(raw)
	raw, err = json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// buildFederatedIngestion produces an ingestion with a mounted secondary
// source: the variant vocabulary derived from the same small world
// buildIngestion uses, ingested over the same KB. testing.TB so the fuzz
// harness can share it.
func buildFederatedIngestion(t testing.TB) *core.Ingestion {
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
	vg, err := synthkb.GenerateVariant(world)
	if err != nil {
		t.Fatal(err)
	}
	vmapper := match.NewCombined(match.NewExact(vg), match.NewEdit(vg, 0))
	ving, err := core.Ingest(med.Ontology, med.Store, vg, corp, vmapper, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ving.FlaggedCount() == 0 {
		t.Fatal("variant ingestion flagged nothing; the federated fixture cannot answer")
	}
	ing.Sources = []core.NamedSource{{Name: "variant", Ing: ving}}
	return ing
}

// assertSourcesRestored checks the secondary came back whole.
func assertSourcesRestored(t *testing.T, want, got *core.Ingestion) {
	t.Helper()
	if len(got.Sources) != len(want.Sources) {
		t.Fatalf("restored %d sources, want %d", len(got.Sources), len(want.Sources))
	}
	for i, src := range want.Sources {
		r := got.Sources[i]
		if r.Name != src.Name {
			t.Errorf("source %d name %q, want %q", i, r.Name, src.Name)
		}
		if r.Ing.Graph.Len() != src.Ing.Graph.Len() || r.Ing.Graph.EdgeCount() != src.Ing.Graph.EdgeCount() {
			t.Errorf("source %q graph: %d/%d vs %d/%d", src.Name,
				r.Ing.Graph.Len(), r.Ing.Graph.EdgeCount(), src.Ing.Graph.Len(), src.Ing.Graph.EdgeCount())
		}
		if r.Ing.MappingCount() != src.Ing.MappingCount() || r.Ing.FlaggedCount() != src.Ing.FlaggedCount() {
			t.Errorf("source %q mappings/flags differ", src.Name)
		}
		if r.Ing.ShortcutsAdded != src.Ing.ShortcutsAdded {
			t.Errorf("source %q shortcutsAdded: %d vs %d", src.Name, r.Ing.ShortcutsAdded, src.Ing.ShortcutsAdded)
		}
		// The secondary shares the primary's store rather than carrying a copy.
		if r.Ing.Store != got.Store {
			t.Errorf("source %q does not share the primary's store", src.Name)
		}
	}
	if err := ValidateForServing(got); err != nil {
		t.Errorf("ValidateForServing on a federated bundle: %v", err)
	}
}

func TestJSONSourcesRoundTrip(t *testing.T) {
	ing := buildFederatedIngestion(t)
	var buf bytes.Buffer
	if err := Save(&buf, ing); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSourcesRestored(t, ing, restored)

	// Determinism with sources present.
	var again bytes.Buffer
	if err := Save(&again, ing); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("federated JSON serialization is not byte-deterministic")
	}
}

// A classic single-source bundle must not mention the sources field at all —
// v1 bytes written by this version stay identical to earlier versions.
func TestJSONSingleSourceOmitsSourcesField(t *testing.T) {
	ing := buildIngestion(t)
	var buf bytes.Buffer
	if err := Save(&buf, ing); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"sources"`)) {
		t.Error("single-source v1 bundle serializes a sources field")
	}
}

func TestFlatSourcesRoundTrip(t *testing.T) {
	ing := buildFederatedIngestion(t)
	restored, err := OpenFlat(writeFlatFile(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	assertSourcesRestored(t, ing, restored)
	assertSameRelaxations(t, ing, restored)

	// Re-save of a restored federated bundle is byte-stable.
	if !bytes.Equal(saveFlatBytes(t, ing), saveFlatBytes(t, restored)) {
		t.Error("flat re-save of a federated bundle is not byte-stable")
	}
}

// A single-source flat bundle carries neither the sources section nor the
// meta flag.
func TestFlatSingleSourceOmitsSourcesSection(t *testing.T) {
	ing := buildIngestion(t)
	data := saveFlatBytes(t, ing)
	if _, _, ok := findFlatSection(data, secSources); ok {
		t.Error("single-source flat bundle carries a sources section")
	}
	restored, err := OpenFlat(writeFlatFile(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Sources) != 0 {
		t.Errorf("single-source flat bundle restored %d phantom sources", len(restored.Sources))
	}
}

// findFlatSection locates a section's offset and length in a flat image.
func findFlatSection(d []byte, kind uint32) (off, length uint64, ok bool) {
	nSec := int(binary.LittleEndian.Uint32(d[8:]))
	dirOff := binary.LittleEndian.Uint64(d[16:])
	for i := 0; i < nSec; i++ {
		e := d[dirOff+uint64(i)*flatDirEntrySize:]
		if binary.LittleEndian.Uint32(e) == kind {
			return binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:]), true
		}
	}
	return 0, 0, false
}

// restampMeta rewrites the meta section's CRC (in the directory) and the
// directory CRC after a deliberate meta mutation, so only semantic
// validation can catch it.
func restampMeta(d []byte) {
	nSec := int(binary.LittleEndian.Uint32(d[8:]))
	dirOff := binary.LittleEndian.Uint64(d[16:])
	for i := 0; i < nSec; i++ {
		e := d[dirOff+uint64(i)*flatDirEntrySize:]
		if binary.LittleEndian.Uint32(e) == secMeta {
			so := binary.LittleEndian.Uint64(e[8:])
			sl := binary.LittleEndian.Uint64(e[16:])
			patchDirEntry(d, i, 24, func(f []byte) {
				binary.LittleEndian.PutUint32(f, sectionCRC(d[so:so+sl]))
			})
		}
	}
}

// TestFlatSourcesCorruption extends the corruption table to the federated
// section: every tear, flip, and flag/section inconsistency must surface as
// ErrCorruptBundle, never as a silently single-source world.
func TestFlatSourcesCorruption(t *testing.T) {
	ing := buildFederatedIngestion(t)
	pristine := saveFlatBytes(t, ing)
	if _, _, ok := findFlatSection(pristine, secSources); !ok {
		t.Fatal("federated flat bundle lacks a sources section")
	}

	metaFlagsOff := func(d []byte) uint64 {
		off, _, ok := findFlatSection(d, secMeta)
		if !ok {
			t.Fatal("no meta section")
		}
		return off + 32
	}

	cases := []struct {
		name   string
		mutate func(d []byte) []byte
	}{
		{"sources payload bit flip", func(d []byte) []byte {
			off, length, _ := findFlatSection(d, secSources)
			d[off+length/2] ^= 0x20
			return d
		}},
		{"sources payload first byte flip", func(d []byte) []byte {
			off, _, _ := findFlatSection(d, secSources)
			d[off] ^= 0xFF
			return d
		}},
		{"sources section truncated via directory", func(d []byte) []byte {
			nSec := int(binary.LittleEndian.Uint32(d[8:]))
			dirOff := binary.LittleEndian.Uint64(d[16:])
			for i := 0; i < nSec; i++ {
				e := d[dirOff+uint64(i)*flatDirEntrySize:]
				if binary.LittleEndian.Uint32(e) == secSources {
					patchDirEntry(d, i, 16, func(f []byte) {
						l := binary.LittleEndian.Uint64(f)
						binary.LittleEndian.PutUint64(f, l/2)
					})
				}
			}
			return d
		}},
		{"sources section present but flag cleared", func(d []byte) []byte {
			off := metaFlagsOff(d)
			flags := binary.LittleEndian.Uint32(d[off:])
			binary.LittleEndian.PutUint32(d[off:], flags&^metaHasSources)
			restampMeta(d)
			return d
		}},
		{"flag set but sources section missing", func(d []byte) []byte {
			nSec := int(binary.LittleEndian.Uint32(d[8:]))
			dirOff := binary.LittleEndian.Uint64(d[16:])
			for i := 0; i < nSec; i++ {
				e := d[dirOff+uint64(i)*flatDirEntrySize:]
				if binary.LittleEndian.Uint32(e) == secSources {
					patchDirEntry(d, i, 0, func(f []byte) {
						binary.LittleEndian.PutUint32(f, 9999)
					})
				}
			}
			return d
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), pristine...))
			buf := alignedBytes(len(data))
			copy(buf, data)
			_, err := openFlatBytes(buf, &mapRef{size: int64(len(buf))})
			if err == nil {
				t.Fatal("corrupted federated bundle opened without error")
			}
			if !errors.Is(err, ErrCorruptBundle) {
				t.Errorf("corruption error is not ErrCorruptBundle: %v", err)
			}
		})
	}
}

// Restore-time source validation: a decodable bundle whose source payload is
// semantically broken (dangling mapping, duplicate name, the reserved
// primary name) must be rejected.
func TestJSONSourcesValidation(t *testing.T) {
	ing := buildFederatedIngestion(t)

	mutate := func(t *testing.T, f func(*Bundle)) error {
		t.Helper()
		var buf bytes.Buffer
		if err := Save(&buf, ing); err != nil {
			t.Fatal(err)
		}
		b, err := decodeBundleForTest(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		f(b)
		raw := reencodeBundleForTest(t, b)
		_, err = Load(bytes.NewReader(raw))
		return err
	}

	cases := []struct {
		name string
		f    func(*Bundle)
	}{
		{"empty source name", func(b *Bundle) { b.Sources[0].Name = "" }},
		{"reserved primary name", func(b *Bundle) { b.Sources[0].Name = core.PrimarySourceName }},
		{"duplicate source names", func(b *Bundle) { b.Sources = append(b.Sources, b.Sources[0]) }},
		{"dangling source mapping", func(b *Bundle) { b.Sources[0].Mappings[0].Concept = 1 << 40 }},
		{"source root outside graph", func(b *Bundle) { b.Sources[0].EKSRoot = 1 << 40 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mutate(t, tc.f)
			if err == nil {
				t.Fatal("broken source payload loaded without error")
			}
			if !errors.Is(err, ErrCorruptBundle) {
				t.Errorf("error is not ErrCorruptBundle: %v", err)
			}
		})
	}
}

func TestInspectFileFormats(t *testing.T) {
	ing := buildIngestion(t)
	fed := buildFederatedIngestion(t)
	dir := t.TempDir()

	write := func(name string, save func(*bytes.Buffer) error) string {
		t.Helper()
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	jsonPath := write("b.json", func(b *bytes.Buffer) error { return Save(b, fed) })
	plainPath := write("plain.flat", func(b *bytes.Buffer) error { return SaveFlat(b, ing) })
	flatPath := write("b.flat", func(b *bytes.Buffer) error { return SaveFlat(b, fed) })

	cases := []struct {
		path        string
		format      string
		version     int
		minSections int
		sources     []string
	}{
		{jsonPath, "json v1", 1, 1, []string{"variant"}},
		{plainPath, "flat v4", 4, 10, nil},
		{flatPath, "flat v4", 4, 10, []string{"variant"}},
	}
	for _, tc := range cases {
		info, err := InspectFile(tc.path)
		if err != nil {
			t.Fatalf("InspectFile(%s): %v", tc.path, err)
		}
		if info.Format != tc.format || info.Version != tc.version {
			t.Errorf("%s: format %q v%d, want %q v%d", tc.path, info.Format, info.Version, tc.format, tc.version)
		}
		if !info.CRCOK {
			t.Errorf("%s: pristine bundle reports failed checksums", tc.path)
		}
		if len(info.Sections) < tc.minSections {
			t.Errorf("%s: %d sections, want at least %d", tc.path, len(info.Sections), tc.minSections)
		}
		for _, s := range info.Sections {
			if !s.CRCOK {
				t.Errorf("%s: section %s reports a failed checksum on a pristine bundle", tc.path, s.Name)
			}
		}
		if len(info.Sources) != len(tc.sources) {
			t.Errorf("%s: sources %v, want %v", tc.path, info.Sources, tc.sources)
		} else {
			for i := range tc.sources {
				if info.Sources[i] != tc.sources[i] {
					t.Errorf("%s: sources %v, want %v", tc.path, info.Sources, tc.sources)
				}
			}
		}
	}
}

// Inspection treats corruption as the finding, not an error — a bit-flipped
// bundle still inspects, with CRCOK false (and the damaged section
// identified for v4).
func TestInspectFileCorruptionIsAFinding(t *testing.T) {
	fed := buildFederatedIngestion(t)
	data := saveFlatBytes(t, fed)
	off, length, ok := findFlatSection(data, secSources)
	if !ok {
		t.Fatal("no sources section")
	}
	data[off+length/2] ^= 0x01
	path := filepath.Join(t.TempDir(), "damaged.flat")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := InspectFile(path)
	if err != nil {
		t.Fatalf("InspectFile on a damaged bundle must still report: %v", err)
	}
	if info.CRCOK {
		t.Error("damaged bundle reports checksums ok")
	}
	damaged := 0
	for _, s := range info.Sections {
		if !s.CRCOK {
			damaged++
			if s.Kind != secSources {
				t.Errorf("damage attributed to section %s, want sources", s.Name)
			}
		}
	}
	if damaged != 1 {
		t.Errorf("%d sections report damage, want exactly 1", damaged)
	}
}

func TestInspectFileUnknownFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "noise")
	if err := os.WriteFile(path, []byte("\x00\x01\x02 not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := InspectFile(path); err == nil {
		t.Fatal("unidentifiable file inspected without error")
	}
	if _, err := InspectFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file inspected without error")
	}
}
