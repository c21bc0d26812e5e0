package dialog

import (
	"reflect"
	"slices"
	"testing"

	"medrelax/internal/medkb"
	"medrelax/internal/strtab"
	"medrelax/internal/synthkb"
)

// TestExtractMatchesPhraseIndexOracle: over the default world (seed 42, the
// root package's sharedSystem), Extract over the two key columns finds what
// the map-based index of the whole lexicon found, for every instance name
// and every concept-name key in three question frames and for every key with
// its last byte cut off, and around keys that begin with a stop word; and
// building an extractor allocates a constant,
// whatever the lexicon's size.
func TestExtractMatchesPhraseIndexOracle(t *testing.T) {
	w, med, _, err := medkb.GenerateWorld(42, synthkb.Config{}, medkb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	names := w.Graph.FlatData().NameKeys
	e := NewMentionExtractor(med.Store, names)
	oracle := oracleIndex(med.Store, names.Strings())

	var terms []string
	for _, inst := range med.Store.AllInstances() {
		terms = append(terms, inst.Name)
	}
	terms = append(terms, names.Strings()...)
	var utterances []string
	for _, term := range terms {
		utterances = append(utterances,
			"what drugs treat "+term, "side effects of "+term+" and fever", "the "+term+" risk")
	}
	for _, key := range names.Strings() {
		utterances = append(utterances, "what drugs treat "+key[:len(key)-1])
	}
	known := 0
	for _, u := range utterances {
		got, want := e.Extract(u), oracle.oracleExtract(med.Store, u)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: extracted %+v, the phrase index %+v", u, got, want)
		}
		for _, m := range got {
			if m.Known() {
				known++
			}
		}
	}
	if known == 0 {
		t.Fatalf("none of %d utterances named a known instance", len(utterances))
	}
	// Keys that begin with a stop word never begin a mention, though the
	// column holds them: the index left them out, Extract skips the word.
	stopped := append(names.Strings(), "drug allergy", "side effects", "the fever", "risk of fever")
	slices.Sort(stopped)
	withStops := strtab.Pack(slices.Compact(stopped))
	e, oracle = NewMentionExtractor(med.Store, withStops), oracleIndex(med.Store, withStops.Strings())
	for _, u := range []string{"what drug allergy treat fever", "side effects of fever", "the fever risk", "risk of fever"} {
		if got, want := e.Extract(u), oracle.oracleExtract(med.Store, u); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: extracted %+v, the phrase index %+v", u, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { NewMentionExtractor(med.Store, names) }); allocs > 1 {
		t.Fatalf("NewMentionExtractor allocates %.0f times; it should build nothing but itself", allocs)
	}
	t.Logf("%d utterances, %d known mentions, %d instance keys, %d concept keys",
		len(utterances), known, med.Store.FlatData().LexKeys.Len(), names.Len())
}
