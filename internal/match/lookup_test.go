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

func TestLookupServicePopularityTieBreak(t *testing.T) {
	// Two concepts share a token; the one with more descendants ranks
	// higher on an ambiguous single-token query.
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
	s := NewLookupService(g)
	hits := s.Search("pain", 2)
	if len(hits) < 2 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].Concept != 10 {
		t.Errorf("popular concept must rank first: %+v", hits)
	}
}

// TestLookupServiceMatchesLegacy replays the lexicon of a generated world —
// multi-parent, with synonyms, leaf variants that tie on popularity and keys
// two concepts share — against the implementation this one replaced
// (export_test.go): every name as typed, reordered, cut to a prefix of its
// last token (prefix expansion), misspelt, and gibberish, at several limits.
// Hits must match to the bit, popularity prior and tie-breaks included, and
// Map must give the same answer.
func TestLookupServiceMatchesLegacy(t *testing.T) {
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
		got, want := NewLookupService(g), newLegacyLookupService(g)
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
		queries = append(queries, "", "   ", "zzqx", "variant", "var", "shared variant", "of")
		for _, q := range queries {
			for _, limit := range []int{1, 5, 50} {
				if g, w := got.Search(q, limit), want.Search(q, limit); !reflect.DeepEqual(g, w) {
					t.Fatalf("Search(%q, %d):\n got %+v\nwant %+v", q, limit, g, w)
				}
			}
			gid, gok := got.Map(q)
			wid, wok := want.Map(q)
			if gid != wid || gok != wok {
				t.Fatalf("Map(%q) = %d, %v; the legacy service says %d, %v", q, gid, gok, wid, wok)
			}
		}
	}
}
