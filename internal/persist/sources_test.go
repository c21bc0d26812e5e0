package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/synthkb"
)

// buildFederatedIngestion produces an ingestion with a mounted secondary
// source: the variant vocabulary derived from the same small world
// buildIngestion uses, ingested over the same KB. testing.TB so the fuzz
// harness can share it.
func buildFederatedIngestion(t testing.TB) *core.Ingestion {
	t.Helper()
	world, med, corp, err := medkb.GenerateWorld(31, synthkb.Config{ConditionsPerPair: 2}, medkb.Config{Drugs: 25})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := core.Ingest(med.Ontology, med.Store, world.Graph, corp, match.NewExact(world.Graph), core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vg, err := synthkb.GenerateVariant(world)
	if err != nil {
		t.Fatal(err)
	}
	vmapper := match.NewEdit(vg, 0)
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
		assertSameRelaxations(t, src.Ing, r.Ing)
	}
	if err := ValidateForServing(got); err != nil {
		t.Errorf("ValidateForServing on a federated bundle: %v", err)
	}
}

// TestJSONSourcesRoundTrip, named for the document that carried sources
// before the sources table: a federated bundle opened from a heap copy brings
// every secondary back, each of its sections at the source's kind base and
// named for it.
func TestJSONSourcesRoundTrip(t *testing.T) {
	ing := buildFederatedIngestion(t)
	data := saveFlatBytes(t, ing)
	restored, err := loadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	assertSourcesRestored(t, ing, restored)

	info, err := InspectFile(writeBundle(t, "fed.flat", data))
	if err != nil {
		t.Fatal(err)
	}
	var secondary []string
	for _, s := range info.Sections {
		if sourceOf(s.Kind) > 0 {
			secondary = append(secondary, s.Name)
			if s.Kind-sourceBase(0) != kindOf(t, strings.TrimPrefix(s.Name, "source1.")) {
				t.Errorf("section %s at kind %d is not its primary's kind at source 1's base", s.Name, s.Kind)
			}
		}
	}
	families := len(graphColumns(new(eks.FlatGraphData))) + len(resolverColumns(new([]uint64))) +
		len(mappingsColumns(new(core.FlatMappingsData))) + len(frequencyColumns(new(core.FlatFrequencyData)))
	if len(secondary) != families {
		t.Errorf("the secondary has %d sections %v, want its %d family sections", len(secondary), secondary, families)
	}
}

// kindOf is the primary kind of a section name.
func kindOf(t *testing.T, name string) uint32 {
	t.Helper()
	for kind, n := range flatSectionNames {
		if n == name {
			return kind
		}
	}
	t.Fatalf("no section is named %s", name)
	return 0
}

func TestFlatSourcesRoundTrip(t *testing.T) {
	ing := buildFederatedIngestion(t)
	restored, err := LoadFile(writeFlatFile(t, ing))
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

// A single-source flat bundle carries neither the sources table nor a
// section at a source's base.
func TestFlatSingleSourceOmitsSourcesSection(t *testing.T) {
	ing := buildIngestion(t)
	sections, err := encodeFlat(ing)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections {
		if s.kind == secSrcNames || sourceOf(s.kind) > 0 {
			t.Errorf("single-source flat bundle carries a %s section", flatSectionName(s.kind))
		}
	}
	restored, err := LoadFile(writeFlatFile(t, ing))
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

// TestFlatSourcesCorruption extends the corruption table to the sources:
// every tear, flip, and flag/table inconsistency must surface as
// ErrCorruptBundle, never as a silently single-source world.
func TestFlatSourcesCorruption(t *testing.T) {
	ing := buildFederatedIngestion(t)
	pristine := saveFlatBytes(t, ing)
	graphIDs := sourceBase(0) + secGraphIDs
	if _, _, ok := findFlatSection(pristine, graphIDs); !ok {
		t.Fatal("federated flat bundle lacks the secondary's graph")
	}

	metaFlagsOff := func(d []byte) uint64 {
		off, _, ok := findFlatSection(d, secMeta)
		if !ok {
			t.Fatal("no meta section")
		}
		return off + 32
	}
	// rekind moves a section to another kind under valid directory checksums.
	rekind := func(d []byte, from, to uint32) {
		nSec := int(binary.LittleEndian.Uint32(d[8:]))
		dirOff := binary.LittleEndian.Uint64(d[16:])
		for i := 0; i < nSec; i++ {
			if binary.LittleEndian.Uint32(d[dirOff+uint64(i)*flatDirEntrySize:]) == from {
				patchDirEntry(d, i, 0, func(f []byte) { binary.LittleEndian.PutUint32(f, to) })
			}
		}
	}

	cases := []struct {
		name   string
		mutate func(d []byte) []byte
	}{
		{"sources payload bit flip", func(d []byte) []byte {
			off, length, _ := findFlatSection(d, graphIDs)
			d[off+length/2] ^= 0x20
			return d
		}},
		{"sources payload first byte flip", func(d []byte) []byte {
			off, _, _ := findFlatSection(d, secSrcNames)
			d[off] ^= 0xFF
			return d
		}},
		{"sources section truncated via directory", func(d []byte) []byte {
			nSec := int(binary.LittleEndian.Uint32(d[8:]))
			dirOff := binary.LittleEndian.Uint64(d[16:])
			for i := 0; i < nSec; i++ {
				e := d[dirOff+uint64(i)*flatDirEntrySize:]
				if binary.LittleEndian.Uint32(e) == graphIDs {
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
			rekind(d, secSrcNames, 9999)
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

	// Every section of the sources table and of the secondary's families:
	// missing, or (the table's) kept without the meta sources flag.
	sections, err := encodeFlat(ing)
	if err != nil {
		t.Fatal(err)
	}
	base := sourceBase(0)
	runFlatEdits(t, sections, familyEdits([][]flatColumn{
		sourcesColumns(new(flatSources)),
		atSource(base, graphColumns(new(eks.FlatGraphData))),
		atSource(base, resolverColumns(new([]uint64))),
		atSource(base, mappingsColumns(new(core.FlatMappingsData))),
		atSource(base, frequencyColumns(new(core.FlatFrequencyData))),
	}))
}

// TestFlatStraySourceSectionRefused: a section at the kind base of a source
// the sources table does not list is refused by its name — in a federated
// bundle one source past the table, in a single-source bundle at any base.
func TestFlatStraySourceSectionRefused(t *testing.T) {
	for _, tc := range []struct {
		ing  *core.Ingestion
		from uint32
		want string
	}{
		{buildFederatedIngestion(t), sourceBase(0) + secGraphIDs, "source2.graphIDs"},
		{buildIngestion(t), secGraphIDs, "source1.graphIDs"},
	} {
		sections, err := encodeFlat(tc.ing)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(sections, func(s flatSection) bool { return s.kind == tc.from })
		stray := flatSection{kind: tc.from + sourceKindStride, payload: sections[i].payload}
		data := flatBytes(t, append(sections, stray))
		_, err = openFlatBytes(data, &mapRef{size: int64(len(data))})
		if !errors.Is(err, ErrCorruptBundle) || !slices.Contains(strings.Fields(err.Error()), tc.want) {
			t.Errorf("a stray %s: %v, want ErrCorruptBundle naming it", tc.want, err)
		}
	}
}

// TestJSONSourcesValidation, named for the document that carried sources
// before the sources table: a bundle whose checksums hold but whose sources
// table is semantically broken — an empty name, the reserved primary name,
// a duplicate name, a dangling mapping, a root outside the graph — must be
// refused.
func TestJSONSourcesValidation(t *testing.T) {
	ing := buildFederatedIngestion(t)
	variant := ing.Sources[0]
	renamed := func(names ...string) func() *core.Ingestion {
		return func() *core.Ingestion {
			cp := *ing
			cp.Sources = nil
			for _, name := range names {
				cp.Sources = append(cp.Sources, core.NamedSource{Name: name, Ing: variant.Ing})
			}
			return &cp
		}
	}
	word64 := func(v uint64) func(p []byte) []byte {
		return func(p []byte) []byte { binary.LittleEndian.PutUint64(p, v); return p }
	}
	keep := func(p []byte) []byte { return p }
	cases := []struct {
		name string
		ing  func() *core.Ingestion
		kind uint32
		edit func(p []byte) []byte
	}{
		{"empty source name", renamed(""), secSrcNames, keep},
		{"reserved primary name", renamed(core.PrimarySourceName), secSrcNames, keep},
		{"duplicate source names", renamed(variant.Name, variant.Name), secSrcNames, keep},
		{"dangling source mapping", renamed(variant.Name), sourceBase(0) + secMapCon, word64(1 << 40)},
		{"source root outside graph", renamed(variant.Name), secSrcRoots, word64(1 << 40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := openEdited(t, tc.ing(), tc.kind, tc.edit)
			if err == nil {
				t.Fatal("broken sources table opened without error")
			}
			if !errors.Is(err, ErrCorruptBundle) {
				t.Errorf("error is not ErrCorruptBundle: %v", err)
			}
		})
	}
}

// TestFlatSecondaryIsMapped: a secondary source is served from the bundle's
// mapping like the primary — its graph and frequency columns are views of
// it, not heap rebuilds — and it opens with the resolver the bundle carries.
func TestFlatSecondaryIsMapped(t *testing.T) {
	restored, err := LoadFile(writeFlatFile(t, buildFederatedIngestion(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	ref, ok := restored.Backing.(*mapRef)
	if !ok || !ref.mapped {
		t.Skipf("the bundle is not memory-mapped here (backing %T)", restored.Backing)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(ref.data)))
	inMapping := func(what string, p unsafe.Pointer) {
		if at := uintptr(p); at < lo || at >= lo+uintptr(len(ref.data)) {
			t.Errorf("the secondary's %s lie outside the primary's mapping", what)
		}
	}
	for _, src := range restored.Sources {
		gd, fd := src.Ing.Graph.FlatData(), src.Ing.Frequencies.FlatData()
		inMapping("graph IDs", unsafe.Pointer(unsafe.SliceData(gd.IDs)))
		inMapping("upward targets", unsafe.Pointer(unsafe.SliceData(gd.UpTo)))
		inMapping("frequency IDs", unsafe.Pointer(unsafe.SliceData(fd.IDs)))
		inMapping("frequency values", unsafe.Pointer(unsafe.SliceData(fd.Vals)))
		if src.Ing.Resolver == nil {
			t.Errorf("source %q opened without a resolver", src.Name)
		} else {
			inMapping("key signatures", unsafe.Pointer(unsafe.SliceData(src.Ing.Resolver.KeySigs())))
		}
		if src.Ing.Backing != restored.Backing {
			t.Errorf("source %q does not share the primary's backing", src.Name)
		}
	}
	if len(restored.Sources) == 0 {
		t.Fatal("the federated bundle opened with no secondary")
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

	plainPath := write("plain.flat", func(b *bytes.Buffer) error { return SaveFlat(b, ing) })
	flatPath := write("b.flat", func(b *bytes.Buffer) error { return SaveFlat(b, fed) })
	accelPath := write("accel.flat", func(b *bytes.Buffer) error { return SaveFlat(b, buildAccelIngestion(t)) })
	// A bundle with every column family lists every section of every table.
	var families []string
	for _, family := range flatFamilies() {
		for _, c := range family {
			families = append(families, c.name)
		}
	}

	cases := []struct {
		path        string
		format      string
		version     int
		minSections int
		sources     []string
		names       []string
	}{
		{plainPath, "flat v4", 4, 10, nil, nil},
		{flatPath, "flat v4", 4, 10, []string{"variant"}, []string{"sourceNames", "source1.graphIDs", "source1.lookupKeySignatures", "source1.freqValues"}},
		{accelPath, "flat v4", 4, len(families) + 5, nil, families},
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
		listed := map[string]bool{}
		for _, s := range info.Sections {
			if !s.CRCOK {
				t.Errorf("%s: section %s reports a failed checksum on a pristine bundle", tc.path, s.Name)
			}
			if strings.HasPrefix(s.Name, "kind/") {
				t.Errorf("%s: section kind %d has no name", tc.path, s.Kind)
			}
			listed[s.Name] = true
		}
		for _, name := range tc.names {
			if !listed[name] {
				t.Errorf("%s: no %s section listed", tc.path, name)
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
	damagedKind := sourceBase(0) + secGraphIDs
	off, length, ok := findFlatSection(data, damagedKind)
	if !ok {
		t.Fatal("no source1.graphIDs section")
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
			if s.Kind != damagedKind {
				t.Errorf("damage attributed to section %s, want source1.graphIDs", s.Name)
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
