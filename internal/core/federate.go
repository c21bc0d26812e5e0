package core

import "fmt"

// NamedSource is one secondary external knowledge source mounted next to
// the primary: a full ingestion of its own graph, mappings, flagged set and
// frequencies over the SAME kb.Store and domain ontology. The mounting
// ingestion is always the source named "primary"; secondaries carry their
// mount name here. Sources are fused at serving time (see engine): each
// source relaxes independently and the per-source ranked lists merge under
// a deterministic fusion rule with per-source attribution.
type NamedSource struct {
	// Name identifies the source in attributions, stats, and bundles. Must
	// be non-empty and must not collide with "primary" or another source.
	Name string
	// Ing is the source's own offline-phase output. Its Store and Ontology
	// are shared with the primary ingestion; Graph, Mappings, Flagged and
	// Frequencies are the source's own.
	Ing *Ingestion
}

// PrimarySourceName is the reserved name of the mounting ingestion itself.
// A bundle without a sources table loads as this single source.
const PrimarySourceName = "primary"

// ValidateSources checks the multi-source invariants of an ingestion:
// non-empty unique names (none colliding with the reserved primary name),
// each secondary sharing the primary's store and ontology — the engine
// resolves every source's instance IDs through the primary's — and each
// being servable on its own. A single-source ingestion (no secondaries)
// always passes.
func (ing *Ingestion) ValidateSources() error {
	seen := map[string]bool{PrimarySourceName: true}
	for i, src := range ing.Sources {
		if src.Name == "" {
			return fmt.Errorf("core: source %d has an empty name", i)
		}
		if seen[src.Name] {
			return fmt.Errorf("core: duplicate source name %q", src.Name)
		}
		seen[src.Name] = true
		if src.Ing == nil {
			return fmt.Errorf("core: source %q has no ingestion", src.Name)
		}
		if src.Ing.Store != ing.Store || src.Ing.Ontology != ing.Ontology {
			return fmt.Errorf("core: source %q does not share the primary's store and ontology", src.Name)
		}
		if src.Ing.Graph == nil || src.Ing.Graph.Len() == 0 {
			return fmt.Errorf("core: source %q has an empty external knowledge source", src.Name)
		}
		if src.Ing.Frequencies == nil {
			return fmt.Errorf("core: source %q has no frequency table", src.Name)
		}
		if src.Ing.FlaggedCount() == 0 {
			return fmt.Errorf("core: source %q has no flagged concepts", src.Name)
		}
	}
	return nil
}
