package match

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/synthkb"
)

func TestLookupServiceSearch(t *testing.T) {
	g := lexGraph(t)
	s := NewLookupService(g)

	// Exact phrase ranks first with the top score.
	hits := s.Search("kidney disease", 5)
	if len(hits) == 0 || hits[0].Concept != 4 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].Score <= hits[len(hits)-1].Score && len(hits) > 1 {
		t.Error("hits not ranked")
	}

	// Word-order tolerance: Jaccard matching ignores order.
	hits = s.Search("disease kidney", 3)
	if len(hits) == 0 || hits[0].Concept != 4 {
		t.Errorf("reordered query hits = %+v", hits)
	}

	// Synonyms are searchable.
	hits = s.Search("whooping cough", 3)
	if len(hits) == 0 || hits[0].Concept != 6 {
		t.Errorf("synonym hits = %+v", hits)
	}

	// Prefix search supports incremental typing.
	hits = s.Search("bronchi", 3)
	found := false
	for _, h := range hits {
		if h.Concept == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("prefix search missed bronchitis: %+v", hits)
	}

	// Empty and degenerate queries.
	if got := s.Search("", 5); got != nil {
		t.Errorf("empty query hits = %+v", got)
	}
	if got := s.Search("fever", 0); got != nil {
		t.Errorf("limit 0 hits = %+v", got)
	}
	if got := s.Search("zzqx", 5); len(got) != 0 {
		t.Errorf("gibberish hits = %+v", got)
	}
}

func TestLookupServiceDeduplicatesConcepts(t *testing.T) {
	g := lexGraph(t)
	s := NewLookupService(g)
	// "pertussis" and its synonym "whooping cough" are the same concept:
	// one hit, not two.
	hits := s.Search("pertussis cough", 10)
	count := 0
	for _, h := range hits {
		if h.Concept == 6 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("concept 6 appears %d times: %+v", count, hits)
	}
}

func TestLookupServiceAsMapper(t *testing.T) {
	g := lexGraph(t)
	s := NewLookupService(g)
	if s.Name() != "LOOKUP" {
		t.Error("name")
	}
	cases := []struct {
		in   string
		want eks.ConceptID
		ok   bool
	}{
		{"fever", 2, true},
		{"disease kidney", 4, true}, // word order
		{"whooping cough", 6, true}, // synonym
		{"completely unrelated gibberish", 0, false},
	}
	for _, c := range cases {
		id, ok := s.Map(c.in)
		if ok != c.ok || (ok && id != c.want) {
			t.Errorf("Map(%q) = %d,%v want %d,%v", c.in, id, ok, c.want, c.ok)
		}
	}
	// Threshold applies.
	s.MinScore = 0.999
	if _, ok := s.Map("disease kidney"); ok {
		t.Error("near-exact must fail under a 0.999 threshold")
	}
	if _, ok := s.Map("kidney disease"); !ok {
		t.Error("exact phrase must clear any threshold below 1")
	}
}

// painGraph is three concepts under a root that share the token "pain", one
// of them with a descendant.
func painGraph(t *testing.T) *eks.Graph {
	t.Helper()
	g := eks.New()
	for _, c := range []eks.Concept{
		{ID: 1, Name: "root"},
		{ID: 10, Name: "chronic pain"},
		{ID: 20, Name: "acute pain"},
		{ID: 30, Name: "chronic pain stage 1"},
	} {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.AddSubsumption(10, 1)
	_ = g.AddSubsumption(20, 1)
	_ = g.AddSubsumption(30, 10)
	_ = g.SetRoot(1)
	return g
}

func TestLookupServicePopularityTieBreak(t *testing.T) {
	// Two concepts share a token; the one with more descendants ranks
	// higher on an ambiguous single-token query.
	s := NewLookupService(painGraph(t))
	hits := s.Search("pain", 2)
	if len(hits) < 2 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].Concept != 10 {
		t.Errorf("popular concept must rank first: %+v", hits)
	}
}

// TestLookupAdoptsItsColumns replays the lexicon of a generated world —
// multi-parent, with synonyms, leaf variants that tie on popularity and keys
// two concepts share — against a service that tokenised the lexicon and one
// that adopted its columns: every name as typed, reordered, cut to a prefix of
// its last token (prefix expansion), misspelt, and gibberish, at several
// limits. Hits and Map must agree to the bit (persist's TestFlatLookupAdopted
// takes the columns through a saved bundle).
func TestLookupAdoptsItsColumns(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	ids := g.ConceptIDs()
	next := ids[len(ids)-1] + 1
	for i := 0; i < 300; i++ {
		parent := w.Findings[i%len(w.Findings)]
		c := eks.Concept{ID: next, Name: fmt.Sprintf("variant %d of %d", i, parent)}
		if i%7 == 0 {
			c.Synonyms = []string{"shared variant name", fmt.Sprintf("variant variant %d", i)}
		}
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
		if err := g.AddSubsumption(next, parent); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for _, g := range []*eks.Graph{lexGraph(t), g} {
		built := NewLookupService(g)
		adopted, err := OpenFlatLookup(g, cloneLookupData(built.FlatData()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(built.FlatData(), adopted.FlatData()) {
			t.Fatal("an adopted service does not hold the columns it was given")
		}
		var queries []string
		for i, key := range g.NameKeys() {
			if i%41 != 0 {
				continue
			}
			toks := strings.Fields(key)
			last := toks[len(toks)-1]
			slices.Reverse(toks)
			queries = append(queries, key, strings.Join(toks, " "), key[:len(key)-len(last)/2], key+"x", "x"+key)
		}
		queries = append(queries, "", "   ", "zzqx", "qzxj123456wvkq", "variant", "var", "shared variant", "of", "pain pai", "pai pai")
		for _, q := range queries {
			for _, limit := range []int{1, 5, 50} {
				if got, want := adopted.Search(q, limit), built.Search(q, limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("Search(%q, %d):\nadopted %+v\nbuilt   %+v", q, limit, got, want)
				}
			}
			gid, gok := adopted.Map(q)
			wid, wok := built.Map(q)
			if gid != wid || gok != wok {
				t.Fatalf("Map(%q) = %d, %v adopted; %d, %v built", q, gid, gok, wid, wok)
			}
		}
	}
}

func cloneLookupData(d FlatLookupData) FlatLookupData {
	return FlatLookupData{
		Tokens: slices.Clone(d.Tokens), TokOff: slices.Clone(d.TokOff), TokKeys: slices.Clone(d.TokKeys),
		Desc: slices.Clone(d.Desc), KeySigs: slices.Clone(d.KeySigs),
	}
}

// TestLookupColumnsSorted pins the layout the reads rely on: tokens strictly
// ascending, so a token's id is its rank, and every token's keys ascending
// positions of keys that contain it.
func TestLookupColumnsSorted(t *testing.T) {
	g := lexGraph(t)
	d := NewLookupService(g).FlatData()
	keys := g.FlatData().NameKeys
	if !slices.IsSorted(d.Tokens) || len(slices.Compact(slices.Clone(d.Tokens))) != len(d.Tokens) {
		t.Fatalf("tokens not strictly ascending: %q", d.Tokens)
	}
	for ti, tok := range d.Tokens {
		span := d.TokKeys[d.TokOff[ti]:d.TokOff[ti+1]]
		if len(span) == 0 || !slices.IsSorted(span) {
			t.Fatalf("token %q lists keys %v", tok, span)
		}
		for _, k := range span {
			if !slices.Contains(strings.Fields(keys[k]), tok) {
				t.Fatalf("token %q lists key %q", tok, keys[k])
			}
		}
	}
	for i, key := range keys {
		if d.KeySigs[i] != keySignature(key) {
			t.Fatalf("signature of key %q is %#x, want %#x", key, d.KeySigs[i], keySignature(key))
		}
	}
}

// TestOpenFlatLookupRejectsHostileColumns hands the validator columns a
// checksum would pass and a read would trip over.
func TestOpenFlatLookupRejectsHostileColumns(t *testing.T) {
	g := painGraph(t)
	base := NewLookupService(g).FlatData()
	multi, _ := slices.BinarySearch(base.Tokens, "pain") // in three keys
	if base.TokOff[multi+1]-base.TokOff[multi] < 2 {
		t.Fatal("fixture has no token in two keys")
	}
	for _, c := range []struct {
		name   string
		mutate func(d *FlatLookupData)
		want   string
	}{
		{"token offsets short", func(d *FlatLookupData) { d.TokOff = d.TokOff[1:] }, "token offsets"},
		{"token offsets past the postings", func(d *FlatLookupData) { d.TokOff[len(d.TokOff)-1]++ }, "token offsets"},
		{"token offsets start late", func(d *FlatLookupData) { d.TokOff[0] = 1 }, "token offsets"},
		{"tokens truncated", func(d *FlatLookupData) { d.Tokens = d.Tokens[:len(d.Tokens)-1] }, "token offsets"},
		{"empty token", func(d *FlatLookupData) { d.Tokens[0] = "" }, "empty or not strictly ascending"},
		{"tokens not ascending", func(d *FlatLookupData) { d.Tokens[0], d.Tokens[1] = d.Tokens[1], d.Tokens[0] }, "empty or not strictly ascending"},
		{"token repeated", func(d *FlatLookupData) { d.Tokens[1] = d.Tokens[0] }, "empty or not strictly ascending"},
		{"empty posting span", func(d *FlatLookupData) { d.TokOff[1] = d.TokOff[0] }, "posting span"},
		{"posting span runs backwards", func(d *FlatLookupData) { d.TokOff[2] = d.TokOff[1] - 1 }, "posting span"},
		{"posting past the keys", func(d *FlatLookupData) { d.TokKeys[d.TokOff[multi+1]-1] = int32(len(g.FlatData().NameKeys)) }, "lists key"},
		{"negative posting", func(d *FlatLookupData) { d.TokKeys[d.TokOff[multi]] = -1 }, "lists key"},
		{"postings descending", func(d *FlatLookupData) {
			lo := d.TokOff[multi]
			d.TokKeys[lo], d.TokKeys[lo+1] = d.TokKeys[lo+1], d.TokKeys[lo]
		}, "lists key"},
		{"posting repeated", func(d *FlatLookupData) { d.TokKeys[d.TokOff[multi]+1] = d.TokKeys[d.TokOff[multi]] }, "lists key"},
		{"descendant counts short", func(d *FlatLookupData) { d.Desc = d.Desc[1:] }, "descendant counts"},
		{"negative descendant count", func(d *FlatLookupData) { d.Desc[2] = -1 }, "negative descendant count"},
		{"key signatures short", func(d *FlatLookupData) { d.KeySigs = d.KeySigs[1:] }, "key signatures"},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := cloneLookupData(base)
			c.mutate(&d)
			if _, err := OpenFlatLookup(g, d); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("OpenFlatLookup: %v, want an error naming %q", err, c.want)
			}
		})
	}
	if _, err := OpenFlatLookup(g, cloneLookupData(base)); err != nil {
		t.Fatalf("the unmutated columns were refused: %v", err)
	}
}

// TestEditSignaturesKeepAnswers misspells the lexicon of a generated world —
// a letter dropped, doubled, replaced by one the name does not hold, two
// swapped, and two edits at once — and wants from the signature-filtered
// scan, under thresholds 1 to 3 and with the signatures derived by NewEdit or
// shared by a lookup service, exactly what the unfiltered scan answers.
func TestEditSignaturesKeepAnswers(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	var queries []string
	for i, key := range g.NameKeys() {
		if i%17 != 0 || len(key) < 4 {
			continue
		}
		mid := len(key) / 2
		queries = append(queries,
			key[:mid]+key[mid+1:],
			key[:mid]+key[mid:mid+1]+key[mid:],
			key[:mid]+"q"+key[mid+1:],
			key[:mid-1]+key[mid:mid+1]+key[mid-1:mid]+key[mid+1:],
			"z"+key[:mid]+key[mid+1:],
			key+"zzzz")
	}
	queries = append(queries, "", "qzxj123456wvkq", "a")
	lookup := NewLookupService(g)
	for threshold := 1; threshold <= 3; threshold++ {
		for name, m := range map[string]*Edit{"NewEdit": NewEdit(g, threshold), "LookupService.Edit": lookup.Edit(threshold)} {
			resolved := 0
			for _, q := range queries {
				id, ok := m.Map(q)
				wid, wok := legacyEditMap(m, q)
				if id != wid || ok != wok {
					t.Fatalf("%s threshold %d: Map(%q) = %d, %v; the unfiltered scan says %d, %v", name, threshold, q, id, ok, wid, wok)
				}
				if ok {
					resolved++
				}
			}
			if resolved < len(queries)/3 {
				t.Errorf("%s threshold %d: only %d of %d misspellings resolved", name, threshold, resolved, len(queries))
			}
		}
	}
}
