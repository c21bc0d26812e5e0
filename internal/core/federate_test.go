package core

import (
	"strings"
	"testing"

	"medrelax/internal/match"
)

// TestValidateSourcesRequiresSharedStore: a secondary maps instance IDs that
// the engine resolves through the primary's store, so a secondary over
// another store — or another ontology — is refused by name, while one over
// the primary's passes.
func TestValidateSourcesRequiresSharedStore(t *testing.T) {
	primary := ingestWorld(t, IngestOptions{})
	g := testEKS(t)
	shared, err := Ingest(primary.Ontology, primary.Store, g, testCorpus(), match.NewExact(g), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	foreign := ingestWorld(t, IngestOptions{})
	ownOntology := *shared
	ownOntology.Ontology = foreign.Ontology
	for name, src := range map[string]*Ingestion{"foreign store and ontology": foreign, "own ontology": &ownOntology} {
		ing := *primary
		ing.Sources = []NamedSource{{Name: "variant", Ing: src}}
		if err := ing.ValidateSources(); err == nil || !strings.Contains(err.Error(), `"variant"`) {
			t.Errorf("%s: ValidateSources = %v, want a refusal naming the source", name, err)
		}
	}
	primary.Sources = []NamedSource{{Name: "variant", Ing: shared}}
	if err := primary.ValidateSources(); err != nil {
		t.Errorf("a secondary over the primary's store and ontology: %v", err)
	}
}
