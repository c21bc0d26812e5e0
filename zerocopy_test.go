package medrelax

import (
	"path/filepath"
	"runtime"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/persist"
	"medrelax/internal/stringutil"
	"medrelax/internal/strtab"
)

// stringColumns are the string columns of an ingestion's graph, store,
// resolver and frequency table, by name.
func stringColumns(ing *core.Ingestion) map[string]strtab.Column {
	g, s, l, f := ing.Graph.FlatData(), ing.Store.FlatData(), ing.Lookup.FlatData(), ing.Frequencies.FlatData()
	return map[string]strtab.Column{
		"graph names": g.Names, "graph synonyms": g.Syns, "graph name keys": g.NameKeys,
		"store concepts": s.Concepts, "store names": s.Names, "store lexicon keys": s.LexKeys,
		"store concept keys": s.ConceptKeys, "store relationship names": s.RelNames,
		"resolver tokens": l.Tokens, "frequency labels": f.Labels,
	}
}

// TestFlatOpenDecodesNoStrings: opening the default world's bundle decodes
// nothing per string. Every string column stays references into the bundle's
// string table, so the bytes the open allocates stay below one 16-byte string
// header per reference — what a []string per column cost on its own — and
// every column reads as the built world's.
func TestFlatOpenDecodesNoStrings(t *testing.T) {
	sys := sharedSystem(t)
	path := filepath.Join(t.TempDir(), "default.flat")
	if err := persist.SaveFileAtomic(path, sys.Ingestion, persist.FormatFlat); err != nil {
		t.Fatal(err)
	}
	built := stringColumns(sys.Ingestion)
	refs := 0
	for _, col := range built {
		refs += col.Len()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loaded, err := persist.LoadFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	allocated, limit := after.TotalAlloc-before.TotalAlloc, 16*uint64(refs)
	if allocated >= limit {
		t.Errorf("the open allocated %d bytes, at least 16 B for each of the bundle's %d string references", allocated, refs)
	}
	t.Logf("the open allocated %d bytes for %d string references (limit %d)", allocated, refs, limit)
	for name, got := range stringColumns(loaded) {
		want := built[name]
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d strings loaded, %d built", name, got.Len(), want.Len())
		}
		for i := range want.Len() {
			if got.At(i) != want.At(i) {
				t.Fatalf("%s[%d] = %q loaded, %q built", name, i, got.At(i), want.At(i))
			}
		}
	}
}

// TestServedMapperResolvesKnownTermsWithoutAllocating: a term that is a name
// key already resolves through the snapshot's mapper without allocating —
// no copy of the key's concept span and no sort to take its smallest ID.
func TestServedMapperResolvesKnownTermsWithoutAllocating(t *testing.T) {
	snap := sharedSystem(t).Engine
	term := stringutil.Normalize(snap.Terms(1)[0])
	if _, ok := snap.Mapper().Map(term); !ok {
		t.Fatalf("the snapshot's mapper does not resolve %q", term)
	}
	if allocs := testing.AllocsPerRun(100, func() { snap.Mapper().Map(term) }); allocs != 0 {
		t.Errorf("resolving %q allocated %v times a call, want 0", term, allocs)
	}
}
