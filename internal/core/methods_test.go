package core

import (
	"testing"

	"medrelax/internal/embedding"
	"medrelax/internal/ontology"
	"medrelax/internal/stringutil"
)

// trainEncoder builds a tiny SIF encoder whose corpus teaches that the
// test world's finding names share contexts.
func trainEncoder(t *testing.T, ing *Ingestion) *embedding.SIFEncoder {
	t.Helper()
	var streams [][]string
	templates := [][]string{
		{"patients", "with", "%s", "respond", "to", "therapy"},
		{"cases", "of", "%s", "were", "reported", "in", "trials"},
		{"management", "of", "%s", "requires", "monitoring"},
	}
	for _, key := range ing.Graph.FlatData().NameKeys.Strings() {
		toks := stringutil.Tokenize(key)
		for _, tmpl := range templates {
			var s []string
			for _, w := range tmpl {
				if w == "%s" {
					s = append(s, toks...)
				} else {
					s = append(s, w)
				}
			}
			for rep := 0; rep < 3; rep++ {
				streams = append(streams, s)
			}
		}
	}
	model, err := embedding.Train(streams, embedding.Config{Dim: 16, Window: 3, MinCount: 2, Iterations: 30, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	var refs [][]string
	for _, key := range ing.Graph.FlatData().NameKeys.Strings() {
		refs = append(refs, stringutil.Tokenize(key))
	}
	return embedding.NewSIFEncoder(model, 0, refs)
}

func TestEmbeddingMethod(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	enc := trainEncoder(t, ing)
	m := NewEmbeddingMethod("Embedding-trained", ing, enc)
	if m.Name() != "Embedding-trained" {
		t.Errorf("name = %s", m.Name())
	}
	ctx := &ontology.Context{Domain: "Indication", Relationship: "hasFinding", Range: "Finding"}
	got := m.RelaxConcepts("headache", ctx, 3)
	if len(got) == 0 {
		t.Fatal("no results")
	}
	// Only flagged concepts are returned, and never the query itself.
	for _, cid := range got {
		if !ing.IsFlagged(cid) {
			t.Errorf("unflagged concept %d returned", cid)
		}
		c, _ := ing.Graph.Concept(cid)
		if c.Name == "headache" {
			t.Error("query concept returned as its own relaxation")
		}
	}
	// k bounds the result count.
	if len(got) > 3 {
		t.Errorf("k=3 but %d results", len(got))
	}
	// Fully OOV terms return nothing rather than panicking.
	if res := m.RelaxConcepts("zzqx vlarp glorb", ctx, 3); len(res) != 0 {
		t.Errorf("OOV term returned %v", res)
	}
	// Synonyms of the query concept are also excluded (pain in throat's
	// synonym "sore throat" indexes the same concept).
	got = m.RelaxConcepts("sore throat", ctx, 5)
	for _, cid := range got {
		if cid == 4 {
			t.Error("synonym lookup leaked the query concept")
		}
	}
}

func TestEmbeddingMethodDeduplicatesAcrossKeys(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	enc := trainEncoder(t, ing)
	m := NewEmbeddingMethod("e", ing, enc)
	got := m.RelaxConcepts("fever", nil, 10)
	seen := map[int64]bool{}
	for _, cid := range got {
		if seen[int64(cid)] {
			t.Fatalf("duplicate concept %d in results", cid)
		}
		seen[int64(cid)] = true
	}
}
