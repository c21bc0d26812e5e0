package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/match"
)

// parentFlatSections is an ingestion's sections as the writer before the
// resolver and candidate columns emitted them: no resolver sections, and the
// candidate pool as one section of 24-byte (concept int64, score float64,
// hops int32, pad) records under kind 86 — that writer's matCandRecords,
// reading today's columns. With a store it is the retired section-86 form.
func parentFlatSections(t testing.TB, ing *core.Ingestion) []flatSection {
	t.Helper()
	sections, err := encodeFlat(ing)
	if err != nil {
		t.Fatal(err)
	}
	sections = slices.DeleteFunc(sections, func(s flatSection) bool {
		return s.kind >= secLkTokens && s.kind <= secLkKeySigs || s.kind == secMatCandScores || s.kind == secMatCandSlots
	})
	if ing.Materialized != nil {
		d, flagged := ing.Materialized.FlatData(), ing.FlatMappings().Flagged
		at := slices.IndexFunc(sections, func(s flatSection) bool { return s.kind > secMatCands })
		if at < 0 {
			at = len(sections)
		}
		payload := make([]byte, 0, 24*len(d.CandSlots))
		for i, packed := range d.CandSlots {
			payload = binary.LittleEndian.AppendUint64(payload, uint64(flagged[packed>>8]))
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(d.CandScores[i]))
			payload = binary.LittleEndian.AppendUint32(payload, packed&0xff)
			payload = binary.LittleEndian.AppendUint32(payload, 0)
		}
		sections = slices.Insert(sections, at, flatSection{kind: secMatCands, payload: payload})
	}
	return sections
}

func flatBytes(t testing.TB, sections []flatSection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFlat(&buf, sections); err != nil {
		t.Fatal(err)
	}
	out := alignedBytes(buf.Len())
	copy(out, buf.Bytes())
	return out
}

func sectionKinds(sections []flatSection) []uint32 {
	kinds := make([]uint32, len(sections))
	for i, s := range sections {
		kinds[i] = s.kind
	}
	return kinds
}

// TestFlatParentBundleRefused: a v4 bundle written the parent's way that
// carries no materialized store has no resolver sections, and is refused by
// name as the retired form it is (with a store it holds section 86 and is
// refused for that: TestRetiredFormsFailByName); the new writer's bundle of
// the same ingestion opens with its resolver and answers alike.
func TestFlatParentBundleRefused(t *testing.T) {
	ing := buildIngestion(t)
	_, err := loadBytes(flatBytes(t, parentFlatSections(t, ing)))
	assertRetired(t, "a parent-written bundle", err, "term resolver", "lookupTokens")
	now, err := loadBytes(saveFlatBytes(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	if now.Lookup == nil {
		t.Fatal("a bundle with resolver sections opened without a resolver")
	}
	assertSameRelaxations(t, ing, now)

	// The new writer never emits the record section, and always the resolver.
	for _, ing := range []*core.Ingestion{ing, buildAccelIngestion(t)} {
		sections, err := encodeFlat(ing)
		if err != nil {
			t.Fatal(err)
		}
		if kinds := sectionKinds(sections); slices.Contains(kinds, secMatCands) || !slices.Contains(kinds, secLkTokens) {
			t.Errorf("the writer emitted sections %v", kinds)
		}
	}
}

// TestFlatParentReaderRefusesNewBundle pins how a reader that predates the
// candidate columns fails on a bundle that has them: no meta bit was spent —
// under metaHasMaterialized that reader requires section 86, which the new
// writer never emits, so it reports a missing section as ErrCorruptBundle
// rather than serving an empty pool. A bundle without a store it opens, and
// tokenises its own resolver: the sections it does not know are skipped.
func TestFlatParentReaderRefusesNewBundle(t *testing.T) {
	sections, err := encodeFlat(buildAccelIngestion(t))
	if err != nil {
		t.Fatal(err)
	}
	d := &flatDecoder{secs: map[uint32][]byte{}}
	for _, s := range sections {
		d.secs[s.kind] = s.payload
	}
	meta, err := decodeFlatMeta(d.secs[secMeta])
	if err != nil || meta.flags&metaHasMaterialized == 0 {
		t.Fatalf("meta %+v (err %v) does not flag the store", meta, err)
	}
	// The parent's restoreMaterialized, at the point it fails.
	if _, err := d.sec(secMatCands); !errors.Is(err, ErrCorruptBundle) {
		t.Fatalf("looking up section %d in a new bundle: %v, want ErrCorruptBundle", secMatCands, err)
	}
}

// TestFlatLookupAdopted takes the resolver through a saved bundle: LoadFile
// adopts columns equal to the ones a fresh tokenisation of the loaded graph
// gives, and the adopted service — and the edit matcher sharing its
// signatures — answers names, reorderings, prefixes, typos and unknowns as
// the built ones do.
func TestFlatLookupAdopted(t *testing.T) {
	ing := buildIngestion(t)
	loaded, err := LoadFile(writeFlatFile(t, ing))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Lookup == nil {
		t.Fatal("the bundle opened without a resolver")
	}
	built := match.NewLookupService(loaded.Graph)
	if !sameColumns(built.FlatData(), loaded.Lookup.FlatData()) {
		t.Fatal("adopted resolver columns differ from a fresh tokenisation of the loaded graph")
	}
	if !sameColumns(match.NewLookupService(ing.Graph).FlatData(), loaded.Lookup.FlatData()) {
		t.Fatal("adopted resolver columns differ from the saved graph's")
	}
	adoptedEdit, builtEdit := loaded.Lookup.Edit(0), match.NewEdit(loaded.Graph, 0)
	queries := []string{"", "zzqx", "qzxj123456wvkq"}
	for i, key := range loaded.Graph.NameKeys() {
		if i%29 != 0 || len(key) < 4 {
			continue
		}
		queries = append(queries, key, key[:len(key)-2], key[:len(key)/2]+key[len(key)/2+1:], "x"+key)
	}
	for _, q := range queries {
		for _, limit := range []int{1, 5, 50} {
			if got, want := loaded.Lookup.Search(q, limit), built.Search(q, limit); !reflect.DeepEqual(got, want) {
				t.Fatalf("Search(%q, %d):\nadopted %+v\nbuilt   %+v", q, limit, got, want)
			}
		}
		gid, gok := adoptedEdit.Map(q)
		wid, wok := builtEdit.Map(q)
		if gid != wid || gok != wok {
			t.Fatalf("Edit.Map(%q) = %d, %v adopted; %d, %v built", q, gid, gok, wid, wok)
		}
	}
}

// TestFlatColumnsOffTheFastPath runs the writer and the reader as a
// big-endian host would — columns encoded and decoded value by value rather
// than handed over as they sit in memory — and wants the same file and the
// same ingestion. (No test in this package runs in parallel: hostLE is read
// without synchronisation.)
func TestFlatColumnsOffTheFastPath(t *testing.T) {
	ing := buildSmallAccelIngestion(t)
	if cd := ing.Candidates.FlatData(); len(cd.Hits) == 0 || len(cd.Shapes) == 0 || len(cd.Tied) == 0 {
		t.Fatal("the candidate index leaves one of its columns empty")
	}
	fast := saveFlatBytes(t, ing)
	defer func(le bool) { hostLE = le }(hostLE)
	hostLE = false
	slow := saveFlatBytes(t, ing)
	if !bytes.Equal(fast, slow) {
		t.Fatal("the writer's bytes depend on the host's byte order")
	}
	decoded, err := loadBytes(slow)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveFlatBytes(t, decoded), fast) {
		t.Error("a bundle decoded value by value saves to different bytes")
	}
	assertSameRelaxations(t, ing, decoded)
}
