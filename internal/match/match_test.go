package match

import (
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/embedding"
	"medrelax/internal/stringutil"
	"medrelax/internal/synthkb"
)

// lexGraph builds a small EKS with names that exercise all three matchers.
func lexGraph(t *testing.T) *eks.Graph {
	t.Helper()
	g := eks.New()
	concepts := []eks.Concept{
		{ID: 1, Name: "clinical finding"},
		{ID: 2, Name: "fever", Synonyms: []string{"pyrexia"}},
		{ID: 3, Name: "headache", Synonyms: []string{"cephalalgia"}},
		{ID: 4, Name: "kidney disease", Synonyms: []string{"nephropathy"}},
		{ID: 5, Name: "bronchitis"},
		{ID: 6, Name: "pertussis", Synonyms: []string{"whooping cough"}},
	}
	for _, c := range concepts {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []eks.ConceptID{2, 3, 4, 5, 6} {
		if err := g.AddSubsumption(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExact(t *testing.T) {
	g := lexGraph(t)
	m := NewExact(g)
	if m.Name() != "EXACT" {
		t.Error("name")
	}
	id, ok := m.Map("Fever")
	if !ok || id != 2 {
		t.Errorf("Map(Fever) = %d,%v", id, ok)
	}
	// Synonyms match too.
	id, ok = m.Map("pyrexia")
	if !ok || id != 2 {
		t.Errorf("Map(pyrexia) = %d,%v", id, ok)
	}
	if _, ok := m.Map("feverr"); ok {
		t.Error("typo must not exact-match")
	}
	if _, ok := m.Map(""); ok {
		t.Error("empty must not match")
	}
}

func TestEdit(t *testing.T) {
	g := lexGraph(t)
	m := NewEdit(g, 0) // default τ=2
	if m.Name() != "EDIT" {
		t.Error("name")
	}
	cases := []struct {
		in   string
		want eks.ConceptID
		ok   bool
	}{
		{"fever", 2, true},       // exact
		{"feverr", 2, true},      // distance 1
		{"bronchittis", 5, true}, // distance 1
		{"pertusis", 6, true},    // distance 1
		{"hedache", 3, true},     // distance 1 (headache)
		{"kidny diseas", 4, true},
		{"completely unrelated phrase", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		id, ok := m.Map(c.in)
		if ok != c.ok || (ok && id != c.want) {
			t.Errorf("Map(%q) = %d,%v want %d,%v", c.in, id, ok, c.want, c.ok)
		}
	}
	// "éü" is two rune substitutions from "ab", though its four UTF-8 bytes
	// share no bit of a byte-wise letter set with it.
	if id, ok := NewEdit(keyGraph(t, "ab", "fever"), 0).Map("éü"); !ok || id != 2 {
		t.Errorf(`Map("éü") = %d,%v want 2,true (the key "ab")`, id, ok)
	}
}

// keyGraph builds a graph whose root is "root" and whose other concepts,
// IDs 2 onward, are names under it.
func keyGraph(tb testing.TB, names ...string) *eks.Graph {
	tb.Helper()
	g := eks.New()
	if err := g.AddConcept(eks.Concept{ID: 1, Name: "root"}); err != nil {
		tb.Fatal(err)
	}
	for i, name := range names {
		id := eks.ConceptID(i + 2)
		if err := g.AddConcept(eks.Concept{ID: id, Name: name}); err != nil {
			tb.Fatal(err)
		}
		if err := g.AddSubsumption(id, 1); err != nil {
			tb.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		tb.Fatal(err)
	}
	return g
}

// misspellings misspells every seventeenth key of g's lexicon at least four
// bytes long — a letter dropped, doubled, replaced by one the name does not
// hold, two swapped, and two edits at once — and adds the empty term, an
// unknown one and a one-letter one.
func misspellings(g *eks.Graph) []string {
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
	return append(queries, "", "qzxj123456wvkq", "a")
}

// TestEditSignaturesKeepAnswers misspells the lexicon of a generated world
// and wants from the deepening, signature-filtered scan, under thresholds 1
// to 3, exactly what the unfiltered single scan answers.
func TestEditSignaturesKeepAnswers(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := misspellings(w.Graph)
	for threshold := 1; threshold <= 3; threshold++ {
		m := NewEdit(w.Graph, threshold)
		resolved := 0
		for _, q := range queries {
			id, ok := m.Map(q)
			wid, wok := legacyEditMap(m, q)
			if id != wid || ok != wok {
				t.Fatalf("threshold %d: Map(%q) = %d, %v; the unfiltered scan says %d, %v", threshold, q, id, ok, wid, wok)
			}
			if ok {
				resolved++
			}
		}
		if resolved < len(queries)/3 {
			t.Errorf("threshold %d: only %d of %d misspellings resolved", threshold, resolved, len(queries))
		}
	}
}

// FuzzEditMap wants from Edit.Map, under thresholds 1 to 3, what the
// unfiltered single scan answers, over a lexicon of ASCII, accented and digit
// keys plus one key the fuzzer picks.
func FuzzEditMap(f *testing.F) {
	for _, seed := range [][2]string{
		{"éü", "ab"}, {"", ""}, {"2019", "2018"}, {"b12", "b 12"}, {"feverr", "fever"},
		{"naive", "naïve"}, {"ünïcödé", "unicode"}, {"qzxj123456wvkq", "qzxj12345wvkq"},
	} {
		for tau := uint8(1); tau <= 3; tau++ {
			f.Add(seed[0], seed[1], tau)
		}
	}
	f.Fuzz(func(t *testing.T, query, key string, tau uint8) {
		names := []string{"ab", "fever", "pyrexia", "café au lait", "naïve b12", "2019 covid", "ärztin"}
		if key != "" {
			names = append(names, key)
		}
		m := NewEdit(keyGraph(t, names...), 1+int(tau%3))
		id, ok := m.Map(query)
		if wid, wok := legacyEditMap(m, query); id != wid || ok != wok {
			t.Fatalf("threshold %d: Map(%q) = %d, %v; the unfiltered scan says %d, %v", m.threshold, query, id, ok, wid, wok)
		}
	})
}

func TestEditPrefersCloserMatch(t *testing.T) {
	g := eks.New()
	for _, c := range []eks.Concept{
		{ID: 1, Name: "root"},
		{ID: 10, Name: "cold"},
		{ID: 20, Name: "colds"},
	} {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.AddSubsumption(10, 1)
	_ = g.AddSubsumption(20, 1)
	_ = g.SetRoot(1)
	m := NewEdit(g, 2)
	// "coldz" is distance 1 from both "cold" and "colds": the first key in
	// sorted order wins, "cold".
	id, ok := m.Map("coldz")
	if !ok || id != 10 {
		t.Errorf("Map(coldz) = %d,%v, want 10,true", id, ok)
	}
	// "colx" is distance 1 from "cold" and 2 from "colds": the closer wins.
	if id, ok := m.Map("colx"); !ok || id != 10 {
		t.Errorf("Map(colx) = %d,%v, want 10,true", id, ok)
	}
}

// TestEditTieGoesToTheFirstKey pins the tie rule on IDs that disagree with
// it: with "cold" = 20 and "colds" = 10, "coldz" is distance 1 from both and
// answers 20, the concept of the key that sorts first, not the smaller ID.
func TestEditTieGoesToTheFirstKey(t *testing.T) {
	g := eks.New()
	for _, c := range []eks.Concept{
		{ID: 1, Name: "root"},
		{ID: 20, Name: "cold"},
		{ID: 10, Name: "colds"},
	} {
		if err := g.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.AddSubsumption(20, 1)
	_ = g.AddSubsumption(10, 1)
	_ = g.SetRoot(1)
	m := NewEdit(g, 2)
	if id, ok := m.Map("coldz"); !ok || id != 20 {
		t.Errorf("Map(coldz) = %d,%v, want 20,true", id, ok)
	}
	if id, ok := legacyEditMap(m, "coldz"); !ok || id != 20 {
		t.Errorf("the unfiltered scan maps coldz to %d,%v, want 20,true", id, ok)
	}
}

// trainEncoder trains a tiny embedding model over a corpus where medical
// synonyms share contexts.
func trainEncoder(t *testing.T, g *eks.Graph) *embedding.SIFEncoder {
	t.Helper()
	var streams [][]string
	template := [][]string{
		{"patient", "presents", "with", "%s", "and", "requires", "treatment"},
		{"the", "doctor", "noted", "%s", "in", "the", "chart", "today"},
		{"symptoms", "of", "%s", "resolved", "after", "therapy"},
		{"chronic", "%s", "was", "managed", "with", "medication"},
	}
	// "renal disease" should embed near "kidney disease" because they share
	// contexts and the token "disease".
	terms := []string{"fever", "headache", "kidney disease", "renal disease",
		"bronchitis", "pertussis", "whooping cough"}
	for _, term := range terms {
		toks := stringutil.Tokenize(term)
		for _, tmpl := range template {
			var s []string
			for _, w := range tmpl {
				if w == "%s" {
					s = append(s, toks...)
				} else {
					s = append(s, w)
				}
			}
			for rep := 0; rep < 5; rep++ {
				streams = append(streams, s)
			}
		}
	}
	model, err := embedding.Train(streams, embedding.Config{Dim: 24, Window: 3, MinCount: 2, Iterations: 40, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var refs [][]string
	for _, key := range g.FlatData().NameKeys.Strings() {
		refs = append(refs, stringutil.Tokenize(key))
	}
	return embedding.NewSIFEncoder(model, 0, refs)
}

func TestEmbedding(t *testing.T) {
	g := lexGraph(t)
	enc := trainEncoder(t, g)
	m := NewEmbedding(g, enc, 0.5)
	if m.Name() != "EMBEDDING" {
		t.Error("name")
	}
	// Exact still matches first.
	id, ok := m.Map("fever")
	if !ok || id != 2 {
		t.Errorf("Map(fever) = %d,%v", id, ok)
	}
	// Paraphrase: "renal disease" ≈ "kidney disease" via shared contexts.
	id, ok = m.Map("renal disease")
	if !ok || id != 4 {
		t.Errorf("Map(renal disease) = %d,%v, want 4,true", id, ok)
	}
	// Fully OOV gibberish must not match.
	if _, ok := m.Map("zzqx vlarp"); ok {
		t.Error("gibberish must not match")
	}
}

func TestEmbeddingThresholdRejects(t *testing.T) {
	g := lexGraph(t)
	enc := trainEncoder(t, g)
	// With an impossible threshold nothing non-exact matches.
	m := NewEmbedding(g, enc, 1.1)
	if _, ok := m.Map("renal disease"); ok {
		t.Error("threshold 1.1 must reject approximate matches")
	}
	if _, ok := m.Map("fever"); !ok {
		t.Error("exact match must bypass the threshold")
	}
}

func TestMapperInterfaceCompliance(t *testing.T) {
	g := lexGraph(t)
	enc := trainEncoder(t, g)
	mappers := []Mapper{NewExact(g), NewEdit(g, 2), NewEmbedding(g, enc, 0)}
	for _, m := range mappers {
		if m.Name() == "" {
			t.Error("mapper must have a name")
		}
		if id, ok := m.Map("fever"); !ok || id != 2 {
			t.Errorf("%s failed the exact case", m.Name())
		}
	}
}

func TestCombined(t *testing.T) {
	g := lexGraph(t)
	enc := trainEncoder(t, g)
	m := NewCombined(NewEdit(g, 2), NewEmbedding(g, enc, 0.5))
	if m.Name() != "COMBINED" {
		t.Error("name")
	}
	cases := []struct {
		in   string
		want eks.ConceptID
		ok   bool
	}{
		{"fever", 2, true},         // exact
		{"pertusis", 6, true},      // edit
		{"renal disease", 4, true}, // embedding
		{"zzqx vlarp", 0, false},   // nothing
	}
	for _, c := range cases {
		id, ok := m.Map(c.in)
		if ok != c.ok || (ok && id != c.want) {
			t.Errorf("Combined.Map(%q) = %d,%v want %d,%v", c.in, id, ok, c.want, c.ok)
		}
	}
	// Order matters: an exact-only chain cannot do what the full chain does.
	short := NewCombined(NewExact(g))
	if _, ok := short.Map("pertusis"); ok {
		t.Error("exact-only chain must miss typos")
	}
}

// TestLookupServiceAsMapper: NewLookupService, chained after EDIT as the
// benchmark's traced resolve chain chains it, places nothing EDIT leaves, so
// the chain maps every term — known names, misspellings and unknown terms —
// where the served EDIT does. (The chain's leading EXACT stage repeats the
// exact key EDIT tries first.)
func TestLookupServiceAsMapper(t *testing.T) {
	w, err := synthkb.Generate(synthkb.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	edit := NewEdit(g, 0)
	chain := NewCombined(NewEdit(g, 0), NewLookupService(g))
	placed := 0
	queries := append(misspellings(g), g.FlatData().NameKeys.At(0), "qzxj123456wvkq")
	for _, q := range queries {
		id, ok := chain.Map(q)
		if wid, wok := edit.Map(q); id != wid || ok != wok {
			t.Errorf("the traced chain maps %q to %d, %v; EDIT to %d, %v", q, id, ok, wid, wok)
		}
		if ok {
			placed++
		}
	}
	if placed == 0 || placed == len(queries) {
		t.Fatalf("%d of %d terms placed; the comparison shows nothing", placed, len(queries))
	}
}
