package match

import (
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

// TestLookupColumnsSorted pins the layout the reads rely on: tokens strictly
// ascending, so a token's id is its rank, and every token's keys ascending
// positions of keys that contain it.
func TestLookupColumnsSorted(t *testing.T) {
	g := lexGraph(t)
	s := NewLookupService(g)
	keys, tokens := g.FlatData().NameKeys.Strings(), s.tokens.Strings()
	if !slices.IsSorted(tokens) || len(slices.Compact(slices.Clone(tokens))) != len(tokens) {
		t.Fatalf("tokens not strictly ascending: %q", tokens)
	}
	for ti, tok := range tokens {
		span := s.tokKeys[s.tokOff[ti]:s.tokOff[ti+1]]
		if len(span) == 0 || !slices.IsSorted(span) {
			t.Fatalf("token %q lists keys %v", tok, span)
		}
		for _, k := range span {
			if !slices.Contains(strings.Fields(keys[k]), tok) {
				t.Fatalf("token %q lists key %q", tok, keys[k])
			}
		}
	}
}

// TestOpenEditRejectsHostileSignatures hands the adopting constructor
// signature columns a checksum would pass and the scan would index past, and
// wants NewEdit's own column, one letter set per key, adopted as it is.
func TestOpenEditRejectsHostileSignatures(t *testing.T) {
	g := painGraph(t)
	keys, sigs := g.FlatData().NameKeys.Strings(), NewEdit(g, 0).KeySigs()
	for i, key := range keys {
		if sigs[i] != keySignature(key) {
			t.Fatalf("signature of key %q is %#x, want %#x", key, sigs[i], keySignature(key))
		}
	}
	for _, c := range []struct {
		name string
		sigs []uint64
	}{
		{"key signatures short", sigs[1:]},
		{"key signatures long", append(slices.Clone(sigs), 0)},
		{"no key signatures", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := OpenEdit(g, c.sigs); err == nil || !strings.Contains(err.Error(), "key signatures") {
				t.Fatalf("OpenEdit: %v, want an error naming the key signatures", err)
			}
		})
	}
	m, err := OpenEdit(g, slices.Clone(sigs))
	if err != nil {
		t.Fatalf("NewEdit's own signatures were refused: %v", err)
	}
	if !slices.Equal(m.KeySigs(), sigs) || m.threshold != DefaultEditThreshold {
		t.Fatalf("OpenEdit holds %d signatures at threshold %d", len(m.KeySigs()), m.threshold)
	}
}

// TestEditSignaturesKeepAnswers misspells the lexicon of a generated world —
// a letter dropped, doubled, replaced by one the name does not hold, two
// swapped, and two edits at once — and wants from the signature-filtered
// scan, under thresholds 1 to 3 with the signatures NewEdit derives, and at
// τ=2 with them adopted by OpenEdit, exactly what the unfiltered scan answers.
func TestEditSignaturesKeepAnswers(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	var queries []string
	for i, key := range g.FlatData().NameKeys.Strings() {
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
	adopted, err := OpenEdit(g, slices.Clone(NewEdit(g, 0).KeySigs()))
	if err != nil {
		t.Fatal(err)
	}
	for threshold := 1; threshold <= 3; threshold++ {
		matchers := map[string]*Edit{"NewEdit": NewEdit(g, threshold)}
		if threshold == DefaultEditThreshold {
			matchers["OpenEdit"] = adopted
		}
		for name, m := range matchers {
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
