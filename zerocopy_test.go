package medrelax

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/persist"
	"medrelax/internal/stringutil"
	"medrelax/internal/strtab"
)

// stringColumns are the string columns of an ingestion's graph, store and
// frequency table, by name.
func stringColumns(ing *core.Ingestion) map[string]strtab.Column {
	g, s, f := ing.Graph.FlatData(), ing.Store.FlatData(), ing.Frequencies.FlatData()
	return map[string]strtab.Column{
		"graph names": g.Names, "graph synonyms": g.Syns, "graph name keys": g.NameKeys,
		"store concepts": s.Concepts, "store names": s.Names, "store lexicon keys": s.LexKeys,
		"store concept keys": s.ConceptKeys, "store relationship names": s.RelNames,
		"frequency labels": f.Labels,
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

// TestAnswersOutliveTheirSnapshot: an answer owns its strings. A loaded
// snapshot answers plain and explained requests and its term sample, then is
// dropped unclosed and collected, which unmaps its bundle; every name the
// answers carry still reads as the built world's answer. On one source the
// requests are "fever" at k=5 and the probe terms; on two, where names are
// fused across sources, the probe terms.
func TestAnswersOutliveTheirSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB) *System
	}{{"single", sharedSystem}, {"two-source", twoSourceSystem}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build(t)
			path := filepath.Join(t.TempDir(), "own.flat")
			if err := persist.SaveFileAtomic(path, sys.Ingestion, persist.FormatFlat); err != nil {
				t.Fatal(err)
			}
			reqs := []engine.Request{{Term: "fever", K: 5}, {Term: "fever", K: 5, Explain: true}}
			for _, term := range probeTerms(sys) {
				reqs = append(reqs, engine.Request{Term: term, Context: ContextIndication, K: 5, Explain: len(reqs)%2 == 0})
			}
			got, terms := answerAndDrop(t, path, reqs)
			for range 5 {
				runtime.GC()
			}
			want := sys.Engine.RelaxBatch(context.Background(), reqs)
			answered := 0
			for i, req := range reqs {
				if len(want[i].Results) > 0 {
					answered++
				}
				if !reflect.DeepEqual(got[i].Results, want[i].Results) {
					t.Errorf("term %q (explain %v): the dropped snapshot's answer reads %+v, the built world's %+v", req.Term, req.Explain, got[i].Results, want[i].Results)
				}
			}
			if answered == 0 {
				t.Fatal("no request was answered; the comparison shows nothing")
			}
			if wantTerms := sys.Engine.Terms(len(terms)); !slices.Equal(terms, wantTerms) {
				t.Errorf("the dropped snapshot's terms read %q, the built world's %q", terms, wantTerms)
			}
		})
	}
}

// answerAndDrop loads the bundle at path, answers reqs and samples its terms,
// and returns without closing the snapshot.
func answerAndDrop(t *testing.T, path string, reqs []engine.Request) ([]engine.Response, []string) {
	t.Helper()
	snap, err := engine.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	return snap.RelaxBatch(context.Background(), reqs), snap.Terms(20)
}
