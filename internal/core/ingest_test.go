package core

import (
	"maps"
	"slices"
	"testing"

	"medrelax/internal/eks"
	"medrelax/internal/kb"
	"medrelax/internal/match"
)

func TestIngestContexts(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	if len(ing.Contexts) != 4 {
		t.Fatalf("contexts = %v, want 4", ing.Contexts)
	}
	want := map[string]bool{
		"Drug-treat-Indication":         true,
		"Drug-cause-Risk":               true,
		"Indication-hasFinding-Finding": true,
		"Risk-hasFinding-Finding":       true,
	}
	for _, c := range ing.Contexts {
		if !want[c.String()] {
			t.Errorf("unexpected context %s", c)
		}
	}
}

func TestIngestMappingsAndFEC(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	// Findings that exactly match EKS names: headache (5), pain in throat
	// (4), fever (7), bronchitis (10). Drugs and indications have no EKS
	// counterpart under the exact mapper.
	wantMap := map[kb.InstanceID]eks.ConceptID{130: 5, 131: 4, 132: 7, 133: 10}
	pairs := ing.FlatMappings()
	got := map[kb.InstanceID]eks.ConceptID{}
	for i, iid := range pairs.Instances {
		got[iid] = pairs.Concepts[i]
	}
	if !maps.Equal(got, wantMap) || ing.MappingCount() != len(wantMap) {
		t.Fatalf("mappings = %v, want %v", got, wantMap)
	}
	for iid, cid := range wantMap {
		if !ing.IsFlagged(cid) {
			t.Errorf("concept %d not flagged", cid)
		}
		if !slices.Contains(ing.InstancesForConcept(cid), iid) {
			t.Errorf("InstancesForConcept(%d) missing %d", cid, iid)
		}
	}
	if ing.FlaggedCount() != 4 {
		t.Errorf("FEC = %v, want 4 concepts", ing.FlaggedIDs())
	}
}

func TestIngestShortcutEdges(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{})
	g := ing.Graph
	// headache (5) is flagged and 3 hops from the root: a shortcut 5->1 with
	// dist 3 must exist, plus 5->2 with dist 2.
	if !g.HasEdge(5, 1) || !g.HasEdge(5, 2) {
		t.Error("missing shortcut edges from headache to non-parent ancestors")
	}
	// Semantic distances are preserved.
	if d, ok := g.SemanticDistance(5, 1); !ok || d != 3 {
		t.Errorf("SemanticDistance(5,1) = %d, want 3", d)
	}
	// Unflagged pair with no flagged endpoint gets no shortcut: psychogenic
	// fever (8, unflagged) to root (1, unflagged): both unflagged... root is
	// not flagged, 8 is not flagged, so no edge 8->1.
	if g.HasEdge(8, 1) {
		t.Error("shortcut added between two unflagged concepts")
	}
	// frequent headache (6, unflagged) to root: no flagged endpoint, no edge.
	if g.HasEdge(6, 1) {
		t.Error("shortcut 6->1 must not exist (neither endpoint flagged)")
	}
	// But 6 -> 3 (craniofacial pain, unflagged): no. 6 -> 2: no. 6's flagged
	// ancestor... none (5 is its direct parent, excluded). Check counting.
	if ing.ShortcutsAdded == 0 {
		t.Error("no shortcuts added")
	}
	// After customization the flagged root-distant concepts are 1 hop away.
	found := false
	for _, nb := range g.NeighborsWithinHops(5, 1) {
		if nb.ID == 1 {
			found = true
		}
	}
	if !found {
		t.Error("headache must be 1 hop from the root after customization")
	}
}

func TestIngestDisableShortcuts(t *testing.T) {
	ing := ingestWorld(t, IngestOptions{DisableShortcuts: true})
	if ing.ShortcutsAdded != 0 || ing.Graph.EdgeCount() != testEKS(t).EdgeCount() {
		t.Error("DisableShortcuts must add no edges")
	}
}

func TestIngestShortcutMaxDist(t *testing.T) {
	capped := ingestWorld(t, IngestOptions{ShortcutMaxDist: 2})
	full := ingestWorld(t, IngestOptions{})
	if capped.ShortcutsAdded >= full.ShortcutsAdded {
		t.Errorf("cap must reduce shortcuts: %d vs %d", capped.ShortcutsAdded, full.ShortcutsAdded)
	}
	// No shortcut spans more than the cap: headache (5) -> root (1) is 3.
	if capped.Graph.HasEdge(5, 1) {
		t.Error("capped ingestion must not add the 3-hop shortcut")
	}
	if !capped.Graph.HasEdge(5, 2) {
		t.Error("capped ingestion must keep the 2-hop shortcut")
	}
}

func TestIngestIdempotentOnDoubleCustomization(t *testing.T) {
	// Running Ingest twice over the same graph must not fail on duplicate
	// shortcut edges.
	o := testOntology(t)
	g := testEKS(t)
	store := testStore(t, o)
	if _, err := Ingest(o, store, g, testCorpus(), match.NewExact(g), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	ing2, err := Ingest(o, store, g, testCorpus(), match.NewExact(g), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ing2.ShortcutsAdded != 0 {
		t.Errorf("second ingestion added %d duplicate shortcuts", ing2.ShortcutsAdded)
	}
}

func TestIngestInvalidInputs(t *testing.T) {
	o := testOntology(t)
	store := testStore(t, o)
	g := eks.New()
	if err := g.AddConcept(eks.Concept{ID: 1, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	// No root -> invalid EKS.
	if _, err := Ingest(o, store, g, testCorpus(), match.NewExact(g), IngestOptions{}); err == nil {
		t.Error("invalid EKS must fail ingestion")
	}
}
