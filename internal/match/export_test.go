package match

import (
	"slices"

	"medrelax/internal/eks"
	"medrelax/internal/stringutil"
)

// legacyEditMap is Edit.Map as it was before the key signatures: every key
// inside the length filter goes to the banded DP. Kept verbatim as the oracle
// of TestEditSignaturesKeepAnswers.
func legacyEditMap(m *Edit, name string) (eks.ConceptID, bool) {
	if id, ok := (&Exact{graph: m.graph}).Map(name); ok {
		return id, ok
	}
	norm := stringutil.Normalize(name)
	if norm == "" {
		return 0, false
	}
	bestDist := m.threshold + 1
	var bestID eks.ConceptID
	found := false
	var band stringutil.EditBand
	band.Reset(norm)
	for _, key := range m.graph.FlatData().NameKeys.Strings() {
		if abs(len(key)-len(norm)) > m.threshold {
			continue
		}
		if !band.Within(key, bestDist-1) {
			continue
		}
		d := stringutil.Levenshtein(norm, key)
		ids := m.graph.IDsForNameKey(key)
		if len(ids) == 0 {
			continue
		}
		id := slices.Min(ids)
		if d < bestDist || (d == bestDist && id < bestID) {
			bestDist = d
			bestID = id
			found = true
		}
	}
	return bestID, found
}
