package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
	"medrelax/internal/strtab"
)

func saveFlatBytes(t testing.TB, ing *core.Ingestion) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveFlat(&buf, ing); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeFlatFile(t testing.TB, ing *core.Ingestion) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bundle.flat")
	if err := os.WriteFile(path, saveFlatBytes(t, ing), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertSameRelaxations runs a relaxation spot-sample on both ingestions
// and requires identical ranked answers.
func assertSameRelaxations(t *testing.T, want, got *core.Ingestion) {
	t.Helper()
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	relA := core.NewRelaxer(want,
		core.NewSimilarity(want.Graph, want.Frequencies, want.Ontology),
		match.NewExact(want.Graph), core.RelaxOptions{Radius: 3})
	relB := core.NewRelaxer(got,
		core.NewSimilarity(got.Graph, got.Frequencies, got.Ontology),
		match.NewExact(got.Graph), core.RelaxOptions{Radius: 3})
	flagged := want.FlaggedIDs()
	if len(flagged) == 0 {
		t.Fatal("ingestion has no flagged concepts to probe")
	}
	if len(flagged) > 25 {
		flagged = flagged[:25]
	}
	for _, q := range flagged {
		a := relA.RelaxConcept(q, ctx, 0)
		b := relB.RelaxConcept(q, ctx, 0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: relaxations diverge:\n  want %+v\n  got  %+v", q, a, b)
		}
	}
}

func TestFlatRoundTrip(t *testing.T) {
	ing := buildIngestion(t)
	restored, err := LoadFile(writeFlatFile(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Backing == nil {
		t.Fatal("flat ingestion has no backing")
	}
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
	if err := ValidateForServing(restored); err != nil {
		t.Errorf("ValidateForServing: %v", err)
	}
	assertSameRelaxations(t, ing, restored)
}

func TestFlatAccelRoundTrip(t *testing.T) {
	ing := buildAccelIngestion(t)
	restored, err := LoadFile(writeFlatFile(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	assertAccelServes(t, ing, restored)
}

func TestFlatAccelFreeOmitsAccelSections(t *testing.T) {
	ing := buildIngestion(t)
	restored, err := LoadFile(writeFlatFile(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Materialized != nil || restored.Candidates != nil {
		t.Error("acceleration-free flat bundle restored phantom accelerations")
	}
}

// TestFlatExplicitClose pins the deterministic release path: a flat
// snapshot can be retired with Close instead of waiting on the garbage
// collector — replica restarts in the chaos harness depend on this —
// and Close is idempotent, through both the Ingestion and the backing.
func TestFlatExplicitClose(t *testing.T) {
	ing := buildIngestion(t)
	restored, err := LoadFile(writeFlatFile(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Backing == nil {
		t.Fatal("flat ingestion has no backing")
	}
	if _, ok := restored.Backing.(interface{ Close() error }); !ok {
		t.Fatalf("flat backing %T does not expose Close", restored.Backing)
	}
	// Use the snapshot before retiring it.
	if restored.FlaggedCount() == 0 {
		t.Fatal("restored ingestion answers nothing")
	}
	size := restored.Backing.SizeBytes()
	if err := restored.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := restored.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	// Residency metadata outlives the mapping (stats pages read it).
	if got := restored.Backing.SizeBytes(); got != size {
		t.Errorf("SizeBytes after Close = %d, want %d", got, size)
	}
	// A heap-built ingestion has no backing; Close must still be a no-op.
	if err := ing.Close(); err != nil {
		t.Fatalf("heap ingestion Close: %v", err)
	}
}

func TestFlatDeterministicBytes(t *testing.T) {
	ing := buildAccelIngestion(t)
	a := saveFlatBytes(t, ing)
	b := saveFlatBytes(t, ing)
	if !bytes.Equal(a, b) {
		t.Error("flat serialization is not byte-deterministic")
	}
}

// The head classifier knows a flat bundle by its MRXF magic, and the decoder
// opens one from a heap copy as from a mapping, accelerations included.
func TestLoadSniffsFlat(t *testing.T) {
	ing := buildAccelIngestion(t)
	restored, err := loadBytes(saveFlatBytes(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	assertAccelServes(t, ing, restored)
}

func TestLoadFileDispatchesFlat(t *testing.T) {
	ing := buildIngestion(t)
	restored, err := LoadFile(writeFlatFile(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Backing == nil {
		t.Fatal("LoadFile on a flat bundle did not take the zero-copy path")
	}
	assertSameRelaxations(t, ing, restored)
}

func TestLoadFileTruncatedHeader(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		path := filepath.Join(t.TempDir(), "short.bundle")
		if err := os.WriteFile(path, []byte("MRXF")[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path)
		if err == nil {
			t.Fatalf("%d-byte bundle loaded without error", n)
		}
		if !errors.Is(err, ErrCorruptBundle) {
			t.Errorf("%d-byte header error is not ErrCorruptBundle: %v", n, err)
		}
	}
}

// SaveFileAtomic accepts the flat format and publishes an openable bundle.
func TestSaveFileAtomicFlat(t *testing.T) {
	ing := buildIngestion(t)
	path := filepath.Join(t.TempDir(), "bundle.flat")
	if err := SaveFileAtomic(path, ing, FormatFlat); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelaxations(t, ing, restored)
}

// Non-integer frequencies under several labels one context subsumes: the
// float sum depends on the order of its additions, so the heap table and the
// table opened from a saved bundle, mapped or from a heap copy, must agree bit
// for bit, call after call.
func TestFractionalFrequenciesSurviveSave(t *testing.T) {
	ing := buildIngestion(t)
	flagged := ing.FlaggedIDs()[0]
	direct := map[string]map[eks.ConceptID]float64{
		"Risk-hasFinding-Finding":             {flagged: 0.6},
		"ContraIndication-hasFinding-Finding": {flagged: 0.3},
		"AdverseEffect-hasFinding-Finding":    {flagged: 0.1},
		"BlackBoxWarning-hasFinding-Finding":  {flagged: 0.2},
	}
	ft, err := core.BuildFrequencyTableFromDirectCounts(ing.Graph, direct, core.FrequencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp := *ing
	cp.Frequencies = ft
	ctx := &ontology.Context{Domain: "Risk", Relationship: "hasFinding", Range: "Finding"}
	want := ft.NormalizedForContext(flagged, ctx, ing.Ontology)

	data := saveFlatBytes(t, &cp)
	for name, open := range map[string]func() (*core.Ingestion, error){
		"mapped": func() (*core.Ingestion, error) { return LoadFile(writeBundle(t, "bundle.flat", data)) },
		"heap":   func() (*core.Ingestion, error) { return loadBytes(data) },
	} {
		restored, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 2000; i++ {
			if got := restored.Frequencies.NormalizedForContext(flagged, ctx, restored.Ontology); got != want {
				t.Fatalf("%s, call %d: %v, want %v", name, i, got, want)
			}
			if got := ft.NormalizedForContext(flagged, ctx, ing.Ontology); got != want {
				t.Fatalf("heap table, call %d: %v, want %v", i, got, want)
			}
		}
	}
}

// patchDirEntry mutates field bytes of directory entry i and re-stamps the
// directory checksum, so the corruption reaches the per-entry validation.
func patchDirEntry(data []byte, i int, fieldOff int, put func([]byte)) {
	dirOff := binary.LittleEndian.Uint64(data[16:])
	e := data[dirOff+uint64(i)*flatDirEntrySize:]
	put(e[fieldOff:])
	nSec := binary.LittleEndian.Uint32(data[8:])
	dir := data[dirOff : dirOff+uint64(nSec)*flatDirEntrySize]
	binary.LittleEndian.PutUint32(data[12:], sectionCRC(dir))
}

func TestFlatCorruptionFailsLoudly(t *testing.T) {
	ing := buildAccelIngestion(t)
	pristine := saveFlatBytes(t, ing)

	cases := []struct {
		name   string
		mutate func(data []byte) []byte
	}{
		{"truncated header", func(d []byte) []byte { return d[:flatHeaderSize-1] }},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xFF; return d }},
		{"bad version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:], 99)
			return d
		}},
		{"truncated body", func(d []byte) []byte { return d[:len(d)-1] }},
		{"zero sections", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], 0)
			return d
		}},
		{"implausible section count", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], flatMaxSections+1)
			return d
		}},
		{"directory off the end", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16:], uint64(len(d)))
			return d
		}},
		{"misaligned directory", func(d []byte) []byte {
			off := binary.LittleEndian.Uint64(d[16:])
			binary.LittleEndian.PutUint64(d[16:], off+4)
			return d
		}},
		{"directory bit flip", func(d []byte) []byte {
			off := binary.LittleEndian.Uint64(d[16:])
			d[off+1] ^= 0xFF
			return d
		}},
		{"section bit flip", func(d []byte) []byte {
			d[flatHeaderSize+2] ^= 0xFF
			return d
		}},
		{"misaligned section", func(d []byte) []byte {
			patchDirEntry(d, 0, 8, func(e []byte) {
				off := binary.LittleEndian.Uint64(e)
				binary.LittleEndian.PutUint64(e, off+4)
			})
			return d
		}},
		{"section overlapping directory", func(d []byte) []byte {
			patchDirEntry(d, 0, 16, func(e []byte) {
				binary.LittleEndian.PutUint64(e, uint64(len(d)))
			})
			return d
		}},
		{"duplicate section kind", func(d []byte) []byte {
			dirOff := binary.LittleEndian.Uint64(d[16:])
			first := binary.LittleEndian.Uint32(d[dirOff:])
			patchDirEntry(d, 1, 0, func(e []byte) {
				binary.LittleEndian.PutUint32(e, first)
			})
			return d
		}},
		{"missing meta section", func(d []byte) []byte {
			// Re-kind every section that is secMeta to an unknown id: the
			// directory stays self-consistent but restore cannot find meta.
			nSec := int(binary.LittleEndian.Uint32(d[8:]))
			dirOff := binary.LittleEndian.Uint64(d[16:])
			for i := 0; i < nSec; i++ {
				e := d[dirOff+uint64(i)*flatDirEntrySize:]
				if binary.LittleEndian.Uint32(e) == secMeta {
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
				t.Fatal("corrupted flat bundle opened without error")
			}
			if !errors.Is(err, ErrCorruptBundle) {
				t.Errorf("corruption error is not ErrCorruptBundle: %v", err)
			}
		})
	}
}

// Flag/section consistency is checked both ways: accel sections without the
// meta flag, and meta flags without the sections.
func TestFlatAccelFlagConsistency(t *testing.T) {
	ing := buildAccelIngestion(t)
	data := saveFlatBytes(t, ing)

	metaFlagOff := func(d []byte) uint64 {
		nSec := int(binary.LittleEndian.Uint32(d[8:]))
		dirOff := binary.LittleEndian.Uint64(d[16:])
		for i := 0; i < nSec; i++ {
			e := d[dirOff+uint64(i)*flatDirEntrySize:]
			if binary.LittleEndian.Uint32(e) == secMeta {
				return binary.LittleEndian.Uint64(e[8:]) + 32
			}
		}
		t.Fatal("no meta section")
		return 0
	}

	t.Run("flags set without sections", func(t *testing.T) {
		d := append([]byte(nil), data...)
		// Clearing the flags while the mat/cidx sections remain must fail.
		off := metaFlagOff(d)
		binary.LittleEndian.PutUint32(d[off:], 0)
		// Re-stamp the meta section CRC so only the semantic check can fire.
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
		buf := alignedBytes(len(d))
		copy(buf, d)
		_, err := openFlatBytes(buf, &mapRef{size: int64(len(buf))})
		if err == nil {
			t.Fatal("accel sections with cleared meta flags opened without error")
		}
		if !errors.Is(err, ErrCorruptBundle) {
			t.Errorf("error is not ErrCorruptBundle: %v", err)
		}
	})
}

// The empty-frequency and minimal-world edge still round-trips.
func TestFlatRoundTripSmallWorld(t *testing.T) {
	ing := buildIngestion(t)
	// Strip accelerations explicitly (buildIngestion has none) and save the
	// same world twice through flat: open → save → open must be stable.
	first, err := LoadFile(writeFlatFile(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	second, err := LoadFile(writeFlatFile(t, first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveFlatBytes(t, first), saveFlatBytes(t, second)) {
		t.Error("flat re-save of a flat-opened bundle is not byte-stable")
	}
	assertSameRelaxations(t, ing, second)
}

// sameColumns reports whether two columns structs of one type hold the same
// columns: a string column by its strings, whatever table its references
// point into, every other field by reflect.DeepEqual.
func sameColumns(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	for i := range va.NumField() {
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if ca, ok := fa.(strtab.Column); ok {
			if !slices.Equal(ca.Strings(), fb.(strtab.Column).Strings()) {
				return false
			}
		} else if !reflect.DeepEqual(fa, fb) {
			return false
		}
	}
	return true
}
