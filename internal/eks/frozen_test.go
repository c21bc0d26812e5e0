package eks_test

// Tests of the one frozen view: a graph built through the mutators and the
// same columns adopted by NewFlatGraph must be indistinguishable to every
// exported read; hostile columns must be rejected before any traversal can
// index with them; and the view must be built a bounded number of times.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"medrelax/internal/core"
	"medrelax/internal/eks"
	"medrelax/internal/match"
	"medrelax/internal/medkb"
	"medrelax/internal/strtab"
	"medrelax/internal/synthkb"
)

// decorate adds what randomDAG lacks: synonyms (one shared by two concepts,
// attached to the smaller ID last, so per-key insertion order differs from
// ID order) and a shortcut edge for every third two-or-more-hop subsumer.
func decorate(t *testing.T, g *eks.Graph) {
	t.Helper()
	ids := g.ConceptIDs()
	for i, id := range ids {
		if i%3 == 0 {
			g.AddSynonym(id, fmt.Sprintf("Alias-%d", id))
		}
	}
	g.AddSynonym(ids[len(ids)-1], "shared alias")
	g.AddSynonym(ids[1], "Shared  Alias")
	// Plan on the unmutated graph, then insert: every insertion drops the
	// view the next read would rebuild.
	var planned []eks.PathEdge
	for _, id := range ids {
		up, _ := g.SubsumerVec(id)
		for i := range up.Len() {
			if sub, dist := up.At(i); dist >= 2 && !g.HasEdge(id, sub) {
				planned = append(planned, eks.PathEdge{From: id, To: sub, Dist: dist})
			}
		}
	}
	for i := 2; i < len(planned); i += 3 {
		if err := g.AddShortcutEdge(planned[i].From, planned[i].To, planned[i].Dist); err != nil {
			t.Fatal(err)
		}
	}
}

// adopt round-trips a built graph through its flat columns.
func adopt(t *testing.T, g *eks.Graph) *eks.Graph {
	t.Helper()
	adopted, err := eks.NewFlatGraph(g.FlatData())
	if err != nil {
		t.Fatalf("NewFlatGraph(g.FlatData()): %v", err)
	}
	return adopted
}

// assertSameReads compares every exported read of two graphs. sample bounds
// the per-concept and per-pair work on larger worlds.
func assertSameReads(t *testing.T, want, got *eks.Graph, sample int) {
	t.Helper()
	eq := func(what string, w, g any) {
		t.Helper()
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s differs:\n built:   %v\n adopted: %v", what, w, g)
		}
	}
	two := func(a, b any) [2]any { return [2]any{a, b} }

	eq("Len", want.Len(), got.Len())
	eq("Root", two(want.Root()), two(got.Root()))
	eq("EdgeCount", want.EdgeCount(), got.EdgeCount())
	eq("ConceptIDs", want.ConceptIDs(), got.ConceptIDs())
	eq("NameKeys", want.NameKeys(), got.NameKeys())
	eq("TopologicalOrder", two(want.TopologicalOrder()), two(got.TopologicalOrder()))
	eq("Validate", want.Validate(), got.Validate())
	eq("FlatData", want.FlatData(), got.FlatData())
	var wantDOT, gotDOT bytes.Buffer
	if err := want.WriteDOT(&wantDOT, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteDOT(&gotDOT, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	eq("WriteDOT", wantDOT.String(), gotDOT.String())

	for _, key := range want.NameKeys() {
		eq("IDsForNameKey "+key, want.IDsForNameKey(key), got.IDsForNameKey(key))
		eq("LookupName "+key, want.LookupName(strings.ToUpper(key)), got.LookupName(strings.ToUpper(key)))
	}
	eq("IDsForNameKey miss", want.IDsForNameKey("no such key"), got.IDsForNameKey("no such key"))

	ids := want.ConceptIDs()
	step := 1
	if sample > 0 && len(ids) > sample {
		step = len(ids) / sample
	}
	var picked []eks.ConceptID
	for i := 0; i < len(ids); i += step {
		picked = append(picked, ids[i])
	}
	picked = append(picked, ids[len(ids)-1]+1) // an unknown concept
	for _, id := range picked {
		at := func(name string) string { return fmt.Sprintf("%s(%d)", name, id) }
		eq(at("Concept"), two(want.Concept(id)), two(got.Concept(id)))
		eq(at("UpEdges"), want.UpEdges(id), got.UpEdges(id))
		eq(at("DescendantCount"), want.DescendantCount(id), got.DescendantCount(id))
		eq(at("SubsumerVec"), two(want.SubsumerVec(id)), two(got.SubsumerVec(id)))
		for r := -1; r <= 3; r++ {
			eq(fmt.Sprintf("NeighborsWithinHops(%d,%d)", id, r), want.NeighborsWithinHops(id, r), got.NeighborsWithinHops(id, r))
		}
	}
	rng := rand.New(rand.NewSource(int64(len(ids))))
	for i := 0; i < 4*len(picked); i++ {
		a, b := picked[rng.Intn(len(picked))], picked[rng.Intn(len(picked))]
		at := func(name string) string { return fmt.Sprintf("%s(%d,%d)", name, a, b) }
		eq(at("ShortestSemanticPath"), two(want.ShortestSemanticPath(a, b)), two(got.ShortestSemanticPath(a, b)))
		eq(at("SemanticDistance"), two(want.SemanticDistance(a, b)), two(got.SemanticDistance(a, b)))
		eq(at("UpPathTo"), two(want.UpPathTo(a, b)), two(got.UpPathTo(a, b)))
		eq(at("HasEdge"), want.HasEdge(a, b), got.HasEdge(a, b))
	}
}

// assertRejectsMutation checks that a graph adopted from flat columns turns
// every mutator away and is unchanged by the attempts.
func assertRejectsMutation(t *testing.T, g *eks.Graph) {
	t.Helper()
	ids := g.ConceptIDs()
	fresh := ids[len(ids)-1] + 1
	before := g.FlatData()
	for name, err := range map[string]error{
		"AddConcept":      g.AddConcept(eks.Concept{ID: fresh, Name: "fresh"}),
		"AddSubsumption":  g.AddSubsumption(ids[len(ids)-1], ids[0]),
		"AddShortcutEdge": g.AddShortcutEdge(ids[len(ids)-1], ids[0], 2),
		"SetRoot":         g.SetRoot(ids[1]),
	} {
		if err == nil {
			t.Errorf("%s succeeded on a read-only graph", name)
		}
	}
	g.AddSynonym(ids[0], "a synonym nobody has")
	if got := g.LookupName("a synonym nobody has"); len(got) != 0 {
		t.Errorf("AddSynonym took effect on a read-only graph: %v", got)
	}
	if !reflect.DeepEqual(before, g.FlatData()) {
		t.Error("rejected mutations changed the read-only graph")
	}
}

func TestAdoptedGraphMatchesBuiltRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		g := eks.RandomDAG(rng, 10+rng.Intn(60))
		decorate(t, g)
		adopted := adopt(t, g)
		assertSameReads(t, g, adopted, 0)
		assertRejectsMutation(t, adopted)
		// Adopting what an adopted graph hands out is a fixed point.
		assertSameReads(t, adopted, adopt(t, adopted), 0)
	}
}

// ingestWorld runs Algorithm 1 over a seeded synthkb world padded with leaf
// variants to at least n concepts, polling Len between the adds exactly as
// the benchmark's padding loop does.
func ingestWorld(t *testing.T, n int) (g *eks.Graph, padBuilds, ingestBuilds int) {
	t.Helper()
	w, med, corp, err := medkb.GenerateWorld(11, synthkb.Config{ConditionsPerPair: 2}, medkb.Config{Drugs: 20})
	if err != nil {
		t.Fatal(err)
	}
	g = w.Graph
	ids := g.ConceptIDs()
	next := ids[len(ids)-1] + 1
	start := g.ViewBuilds()
	for i := 0; g.Len() < n; i++ {
		parent := w.Findings[i%len(w.Findings)]
		if err := g.AddConcept(eks.Concept{ID: next, Name: fmt.Sprintf("variant %d of %d", i, parent)}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddSubsumption(next, parent); err != nil {
			t.Fatal(err)
		}
		if _, ok := g.Root(); !ok {
			t.Fatal("root lost while padding")
		}
		next++
	}
	padBuilds = g.ViewBuilds() - start
	start = g.ViewBuilds()
	ing, err := core.Ingest(med.Ontology, med.Store, g, corp, match.NewExact(g), core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ing.ShortcutsAdded == 0 {
		t.Fatal("ingestion added no shortcut edges; the fixture exercises nothing")
	}
	return g, padBuilds, g.ViewBuilds() - start
}

func TestAdoptedGraphMatchesBuiltSynthWorld(t *testing.T) {
	g, _, _ := ingestWorld(t, 0)
	adopted := adopt(t, g)
	assertSameReads(t, g, adopted, 60)
	assertRejectsMutation(t, adopted)
}

// TestViewBuildCount pins the two facts ingestion at scale depends on: a
// loader polling Len and Root between adds never builds the view, and
// core.Ingest builds it a number of times that does not grow with the graph.
func TestViewBuildCount(t *testing.T) {
	small, smallPad, smallBuilds := ingestWorld(t, 2500)
	large, largePad, largeBuilds := ingestWorld(t, 7500)
	if small.Len() != 2500 || large.Len() != 7500 {
		t.Fatalf("padding stopped at %d and %d concepts", small.Len(), large.Len())
	}
	if smallPad != 0 || largePad != 0 {
		t.Errorf("the padding loop built the view %d and %d times, want 0", smallPad, largePad)
	}
	if smallBuilds != largeBuilds || smallBuilds > 2 {
		t.Errorf("core.Ingest built the view %d times at %d concepts and %d times at %d; want the same count, at most 2",
			smallBuilds, small.Len(), largeBuilds, large.Len())
	}
}

// TestNewFlatGraphRejectsHostileColumns corrupts one column at a time of a
// valid layout; every case must fail validation rather than reach a
// traversal.
// figure5Columns is the Figure 5 chain's columns (concepts 1..5, 4 native
// edges, shortcut 5->2 of distance 3, a synonym on 3), deep-copied so a case
// cannot corrupt its neighbours through the shared graph; a case replaces a
// string column (edited) instead of writing to it.
func figure5Columns(t *testing.T) eks.FlatGraphData {
	g := figure5Chain(t)
	g.AddSynonym(3, "CKD")
	d := g.FlatData()
	return eks.FlatGraphData{
		IDs: slices.Clone(d.IDs), Names: d.Names,
		SynOff: slices.Clone(d.SynOff), Syns: d.Syns, Root: d.Root,
		UpOff: slices.Clone(d.UpOff), DownOff: slices.Clone(d.DownOff),
		UpTo: slices.Clone(d.UpTo), DownTo: slices.Clone(d.DownTo),
		UpDist: slices.Clone(d.UpDist), DownDist: slices.Clone(d.DownDist),
		UpNativeEnd: slices.Clone(d.UpNativeEnd), DownNativeEnd: slices.Clone(d.DownNativeEnd),
		NameKeys: d.NameKeys, KeyOff: slices.Clone(d.KeyOff), KeyIDs: slices.Clone(d.KeyIDs),
	}
}

func TestNewFlatGraphRejectsHostileColumns(t *testing.T) {
	base := func() eks.FlatGraphData { return figure5Columns(t) }
	if _, err := eks.NewFlatGraph(base()); err != nil {
		t.Fatalf("the uncorrupted layout is rejected: %v", err)
	}
	// Node 4 is concept 5: up edges [native ->4, shortcut ->2].
	cases := []struct {
		name    string
		corrupt func(d *eks.FlatGraphData)
		want    string
	}{
		{"ids not ascending", func(d *eks.FlatGraphData) { d.IDs[2], d.IDs[3] = d.IDs[3], d.IDs[2] }, "not strictly ascending"},
		{"duplicate id", func(d *eks.FlatGraphData) { d.IDs[3] = d.IDs[2] }, "not strictly ascending"},
		{"name count", func(d *eks.FlatGraphData) { d.Names = edited(d.Names, func(s []string) []string { return s[:4] }) }, "4 names for 5"},
		{"empty name", func(d *eks.FlatGraphData) {
			d.Names = edited(d.Names, func(s []string) []string { s[1] = ""; return s })
		}, "empty name"},
		{"synonym offsets decrease", func(d *eks.FlatGraphData) { d.SynOff[1], d.SynOff[2] = 1, 0 }, "offsets decrease"},
		{"synonym offsets past the pool", func(d *eks.FlatGraphData) { d.SynOff[5] = 9 }, "offsets end at 9"},
		{"offsets too short", func(d *eks.FlatGraphData) { d.UpOff = d.UpOff[:5] }, "have length 5, want 6"},
		{"offsets start past zero", func(d *eks.FlatGraphData) { d.DownOff[0] = 1 }, "offsets start at 1"},
		{"edge offsets past the pool", func(d *eks.FlatGraphData) { d.UpOff[5]++ }, "offsets end at"},
		{"edge offsets decrease", func(d *eks.FlatGraphData) { d.UpOff[3] = 0 }, "offsets decrease"},
		{"target out of range", func(d *eks.FlatGraphData) { d.UpTo[0] = 5 }, "out of range"},
		{"negative target", func(d *eks.FlatGraphData) { d.DownTo[0] = -1 }, "out of range"},
		{"self edge", func(d *eks.FlatGraphData) { d.UpTo[d.UpOff[4]] = 4 }, "self edge"},
		{"targets and distances disagree", func(d *eks.FlatGraphData) { d.UpDist = d.UpDist[:3] }, "targets, 3 distances"},
		{"native boundary before its span", func(d *eks.FlatGraphData) { d.UpNativeEnd[4] = d.UpOff[4] - 1 }, "native boundary"},
		{"native boundary after its span", func(d *eks.FlatGraphData) { d.DownNativeEnd[0] = d.DownOff[1] + 1 }, "native boundary"},
		{"boundary count", func(d *eks.FlatGraphData) { d.UpNativeEnd = d.UpNativeEnd[:4] }, "native boundaries have length 4"},
		{"native distance below 1", func(d *eks.FlatGraphData) { d.UpDist[d.UpOff[4]] = 0 }, "distance 0, floor 1"},
		{"shortcut distance below 2", func(d *eks.FlatGraphData) { d.UpDist[d.UpOff[4]+1] = 1 }, "distance 1, floor 2"},
		{"name keys unsorted", func(d *eks.FlatGraphData) {
			d.NameKeys = edited(d.NameKeys, func(s []string) []string { s[0], s[1] = s[1], s[0]; return s })
		}, "name keys not strictly ascending"},
		{"name key offsets past the pool", func(d *eks.FlatGraphData) { d.KeyOff[len(d.KeyOff)-1]++ }, "name index offsets end at"},
		{"key id not a concept", func(d *eks.FlatGraphData) { d.KeyIDs[0] = 99 }, "unknown concept 99"},
		{"root not a concept", func(d *eks.FlatGraphData) { d.Root = 99 }, "root 99 not a concept"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base()
			tc.corrupt(&d)
			g, err := eks.NewFlatGraph(d)
			if err == nil {
				t.Fatalf("accepted; Len=%d", g.Len())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNewFlatGraphFindsEveryIDExactly: a name-index id or a root that is not
// in the concept column is refused with the same message wherever it falls —
// in a gap of the column, below its first id, past its last, at either end
// of int64 — and a column that spans all of int64 is adopted.
func TestNewFlatGraphFindsEveryIDExactly(t *testing.T) {
	// The chain's ids 1..5 spread over int64 with gaps: MinInt64, -1000, 3,
	// 1000, MaxInt64.
	spread := map[eks.ConceptID]eks.ConceptID{1: math.MinInt64, 2: -1000, 4: 1000, 5: math.MaxInt64}
	wide := func() eks.FlatGraphData {
		d := figure5Columns(t)
		for _, col := range [][]eks.ConceptID{d.IDs, d.KeyIDs} {
			for i, id := range col {
				if w, ok := spread[id]; ok {
					col[i] = w
				}
			}
		}
		d.Root = spread[d.Root]
		return d
	}
	if _, err := eks.NewFlatGraph(wide()); err != nil {
		t.Fatalf("a column spanning int64 is rejected: %v", err)
	}
	key := func(id eks.ConceptID) func(d *eks.FlatGraphData) string {
		return func(d *eks.FlatGraphData) string {
			d.KeyIDs[0] = id
			return fmt.Sprintf("eks: flat graph: name index references unknown concept %d", id)
		}
	}
	root := func(id eks.ConceptID) func(d *eks.FlatGraphData) string {
		return func(d *eks.FlatGraphData) string {
			d.Root = id
			return fmt.Sprintf("eks: flat graph: root %d not a concept", id)
		}
	}
	cases := []struct {
		name    string
		base    func() eks.FlatGraphData
		corrupt func(d *eks.FlatGraphData) string
	}{
		{"key id below the first", func() eks.FlatGraphData { return figure5Columns(t) }, key(0)},
		{"key id past the last", func() eks.FlatGraphData { return figure5Columns(t) }, key(6)},
		{"key id MinInt64", func() eks.FlatGraphData { return figure5Columns(t) }, key(math.MinInt64)},
		{"key id MaxInt64", func() eks.FlatGraphData { return figure5Columns(t) }, key(math.MaxInt64)},
		{"root below the first", func() eks.FlatGraphData { return figure5Columns(t) }, root(-1)},
		{"root MinInt64", func() eks.FlatGraphData { return figure5Columns(t) }, root(math.MinInt64)},
		{"root MaxInt64", func() eks.FlatGraphData { return figure5Columns(t) }, root(math.MaxInt64)},
		{"wide: key id in a gap", wide, key(2)},
		{"wide: key id next to MinInt64", wide, key(math.MinInt64 + 1)},
		{"wide: key id next to MaxInt64", wide, key(math.MaxInt64 - 1)},
		{"wide: root in a gap", wide, root(0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.base()
			want := tc.corrupt(&d)
			if _, err := eks.NewFlatGraph(d); err == nil || err.Error() != want {
				t.Fatalf("error %v, want %q", err, want)
			}
		})
	}
}

// edited is a string column as edit leaves a copy of its strings, packed
// anew: how a hostile case changes a column, which is never mutated in place.
func edited(c strtab.Column, edit func([]string) []string) strtab.Column {
	return strtab.Pack(edit(c.Strings()))
}
