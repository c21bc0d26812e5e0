package eks

import (
	"math/rand"
	"strings"
	"testing"
)

// buildDiamond returns a small diamond-shaped DAG:
//
//	  1 (root)
//	 / \
//	2   3
//	 \ / \
//	  4   5
//	  |
//	  6
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	names := map[ConceptID]string{
		1: "thing", 2: "left", 3: "right", 4: "join", 5: "leaf-right", 6: "deep",
	}
	for id, n := range names {
		if err := g.AddConcept(Concept{ID: id, Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	edges := [][2]ConceptID{{2, 1}, {3, 1}, {4, 2}, {4, 3}, {5, 3}, {6, 4}}
	for _, e := range edges {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRoot(1); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddConceptErrors(t *testing.T) {
	g := New()
	if err := g.AddConcept(Concept{ID: 1, Name: ""}); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := g.AddConcept(Concept{ID: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddConcept(Concept{ID: 1, Name: "b"}); err == nil {
		t.Error("duplicate id must be rejected")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	if err := g.AddConcept(Concept{ID: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddConcept(Concept{ID: 2, Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSubsumption(1, 1); err == nil {
		t.Error("self edge must be rejected")
	}
	if err := g.AddSubsumption(1, 3); err == nil {
		t.Error("unknown target must be rejected")
	}
	if err := g.AddSubsumption(3, 1); err == nil {
		t.Error("unknown source must be rejected")
	}
	if err := g.AddSubsumption(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSubsumption(1, 2); err == nil {
		t.Error("duplicate edge must be rejected")
	}
	if err := g.AddShortcutEdge(1, 2, 1); err == nil {
		t.Error("shortcut with dist<2 must be rejected")
	}
}

func TestLookupName(t *testing.T) {
	g := New()
	if err := g.AddConcept(Concept{ID: 10, Name: "Myocardial Infarction", Synonyms: []string{"heart attack", "MI"}}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"myocardial infarction", "Heart Attack", "  mi "} {
		ids := g.LookupName(q)
		if len(ids) != 1 || ids[0] != 10 {
			t.Errorf("LookupName(%q) = %v, want [10]", q, ids)
		}
	}
	if got := g.LookupName("stroke"); len(got) != 0 {
		t.Errorf("LookupName(stroke) = %v, want empty", got)
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g := buildDiamond(t)
	anc := g.Ancestors(6)
	for _, want := range []ConceptID{4, 2, 3, 1} {
		if !anc[want] {
			t.Errorf("Ancestors(6) missing %d", want)
		}
	}
	if anc[6] || anc[5] {
		t.Error("Ancestors(6) must exclude self and non-ancestors")
	}
	desc := g.Descendants(3)
	for _, want := range []ConceptID{4, 5, 6} {
		if !desc[want] {
			t.Errorf("Descendants(3) missing %d", want)
		}
	}
	if desc[2] || desc[3] {
		t.Error("Descendants(3) must exclude self and siblings")
	}
	if got := g.DescendantCount(1); got != 5 {
		t.Errorf("DescendantCount(root) = %d, want 5", got)
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := buildDiamond(t)
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != g.Len() {
		t.Fatalf("order has %d concepts, want %d", len(order), g.Len())
	}
	pos := make(map[ConceptID]int)
	for i, id := range order {
		pos[id] = i
	}
	// children before parents
	for _, e := range [][2]ConceptID{{2, 1}, {3, 1}, {4, 2}, {4, 3}, {5, 3}, {6, 4}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("child %d not before parent %d in %v", e[0], e[1], order)
		}
	}
}

func TestTopologicalOrderCycle(t *testing.T) {
	g := New()
	for id := ConceptID(1); id <= 3; id++ {
		if err := g.AddConcept(Concept{ID: id, Name: string(rune('a' + id))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]ConceptID{{1, 2}, {2, 3}, {3, 1}} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.TopologicalOrder(); err == nil {
		t.Error("cycle must be reported")
	}
}

func TestValidate(t *testing.T) {
	g := buildDiamond(t)
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	// Orphan concept cannot reach root.
	if err := g.AddConcept(Concept{ID: 99, Name: "orphan"}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("orphan must fail validation")
	}
}

func TestValidateNoRoot(t *testing.T) {
	g := New()
	if err := g.AddConcept(Concept{ID: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("missing root must fail validation")
	}
}

func TestNeighborsWithinHops(t *testing.T) {
	g := buildDiamond(t)
	nbs := g.NeighborsWithinHops(6, 2)
	got := map[ConceptID]int{}
	for _, n := range nbs {
		got[n.ID] = n.Hops
	}
	want := map[ConceptID]int{4: 1, 2: 2, 3: 2}
	if len(got) != len(want) {
		t.Fatalf("NeighborsWithinHops(6,2) = %v, want %v", got, want)
	}
	for id, h := range want {
		if got[id] != h {
			t.Errorf("neighbor %d at %d hops, want %d", id, got[id], h)
		}
	}
	if len(g.NeighborsWithinHops(6, 0)) != 0 {
		t.Error("radius 0 must return nothing")
	}
	if g.NeighborsWithinHops(404, 3) != nil {
		t.Error("unknown source must return nil")
	}
}

func TestShortcutEdgeChangesHopsNotSemantics(t *testing.T) {
	g := buildDiamond(t)
	// 6 -> 1 is 3 native hops.
	d, ok := g.SemanticDistance(6, 1)
	if !ok || d != 3 {
		t.Fatalf("SemanticDistance(6,1) = %d,%v, want 3,true", d, ok)
	}
	// Before the shortcut, 1 is not within 2 hops of 6.
	for _, n := range g.NeighborsWithinHops(6, 2) {
		if n.ID == 1 {
			t.Fatal("root already within 2 hops before shortcut")
		}
	}
	if err := g.AddShortcutEdge(6, 1, 3); err != nil {
		t.Fatal(err)
	}
	// Now 1 is a 1-hop neighbor...
	found := false
	for _, n := range g.NeighborsWithinHops(6, 1) {
		if n.ID == 1 && n.Hops == 1 {
			found = true
		}
	}
	if !found {
		t.Error("shortcut must make the ancestor a 1-hop neighbor")
	}
	// ...but the semantic distance is unchanged.
	d, ok = g.SemanticDistance(6, 1)
	if !ok || d != 3 {
		t.Errorf("SemanticDistance after shortcut = %d, want 3", d)
	}
	// And the expanded path is 3 generalizations.
	p, ok := g.ShortestSemanticPath(6, 1)
	if !ok || p.Len() != 3 || p.Generalizations() != 3 {
		t.Errorf("path = %+v, want 3 generalization hops", p)
	}
	if g.ShortcutCount() != 1 {
		t.Errorf("ShortcutCount = %d, want 1", g.ShortcutCount())
	}
}

func TestShortestSemanticPathDirections(t *testing.T) {
	g := buildDiamond(t)
	// 6 -> 5: up 6->4->3 then down 3->5 (2 gen + 1 spec, via 3) OR
	// 6->4->2->1->3->5 (longer). Shortest is 6-4-3-5? 4's parents are 2 and 3.
	p, ok := g.ShortestSemanticPath(6, 5)
	if !ok {
		t.Fatal("no path 6->5")
	}
	if p.Len() != 3 {
		t.Fatalf("path length = %d, want 3", p.Len())
	}
	if p.Generalizations() != 2 {
		t.Errorf("generalizations = %d, want 2", p.Generalizations())
	}
	// Reverse direction flips the direction counts.
	q, ok := g.ShortestSemanticPath(5, 6)
	if !ok || q.Len() != 3 || q.Generalizations() != 1 {
		t.Errorf("reverse path = %+v, want len 3 with 1 generalization", q)
	}
	// Self path is empty.
	s, ok := g.ShortestSemanticPath(4, 4)
	if !ok || s.Len() != 0 {
		t.Errorf("self path = %+v, want empty", s)
	}
}

func TestShortestSemanticPathDisconnected(t *testing.T) {
	g := New()
	if err := g.AddConcept(Concept{ID: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddConcept(Concept{ID: 2, Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.ShortestSemanticPath(1, 2); ok {
		t.Error("disconnected concepts must report no path")
	}
	if _, ok := g.ShortestSemanticPath(1, 404); ok {
		t.Error("unknown concept must report no path")
	}
}

func TestLCS(t *testing.T) {
	g := buildDiamond(t)
	// LCS(6, 5): common subsumers are 3 (dist 2+1=3) and 1 (3+2=5): choose 3.
	res, ok := g.LCS(6, 5)
	if !ok {
		t.Fatal("LCS(6,5) not found")
	}
	if len(res.IDs) != 1 || res.IDs[0] != 3 || res.Combined != 3 {
		t.Errorf("LCS(6,5) = %+v, want {[3] 3}", res)
	}
	// LCS of a concept with its ancestor is the ancestor itself.
	res, ok = g.LCS(6, 2)
	if !ok || len(res.IDs) != 1 || res.IDs[0] != 2 {
		t.Errorf("LCS(6,2) = %+v, want [2]", res)
	}
	// LCS with itself is itself at distance 0.
	res, ok = g.LCS(4, 4)
	if !ok || len(res.IDs) != 1 || res.IDs[0] != 4 || res.Combined != 0 {
		t.Errorf("LCS(4,4) = %+v, want {[4] 0}", res)
	}
}

func TestLCSTies(t *testing.T) {
	// Two parents at equal distance: both are returned.
	g := New()
	for id := ConceptID(1); id <= 4; id++ {
		if err := g.AddConcept(Concept{ID: id, Name: string(rune('a' + id))}); err != nil {
			t.Fatal(err)
		}
	}
	// 3 and 4 are both children of both 1 and 2.
	for _, e := range [][2]ConceptID{{3, 1}, {3, 2}, {4, 1}, {4, 2}} {
		if err := g.AddSubsumption(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, ok := g.LCS(3, 4)
	if !ok {
		t.Fatal("no LCS")
	}
	if len(res.IDs) != 2 || res.IDs[0] != 1 || res.IDs[1] != 2 || res.Combined != 2 {
		t.Errorf("LCS(3,4) = %+v, want tie {[1 2] 2}", res)
	}
}

func TestDepthFromRoot(t *testing.T) {
	g := buildDiamond(t)
	for id, want := range map[ConceptID]int{1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3} {
		d, ok := g.DepthFromRoot(id)
		if !ok || d != want {
			t.Errorf("DepthFromRoot(%d) = %d,%v want %d,true", id, d, ok, want)
		}
	}
}

// randomDAG builds a random layered DAG for property checks.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New()
	_ = g.AddConcept(Concept{ID: 1, Name: "root"})
	_ = g.SetRoot(1)
	for id := ConceptID(2); id <= ConceptID(n); id++ {
		_ = g.AddConcept(Concept{ID: id, Name: "c" + string(rune('a'+id%26)) + string(rune('0'+id%10)) + "x" + itoa(int(id))})
		// Each concept gets 1-2 parents among lower IDs (guarantees DAG + rooted).
		parents := 1 + rng.Intn(2)
		used := map[ConceptID]bool{}
		for p := 0; p < parents; p++ {
			par := ConceptID(1 + rng.Intn(int(id)-1))
			if used[par] {
				continue
			}
			used[par] = true
			_ = g.AddSubsumption(id, par)
		}
	}
	return g
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestRandomDAGProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(60)
		g := randomDAG(rng, n)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		order, err := g.TopologicalOrder()
		if err != nil {
			t.Fatal(err)
		}
		pos := map[ConceptID]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, id := range g.ConceptIDs() {
			for _, par := range g.Parents(id) {
				if pos[id] >= pos[par] {
					t.Fatalf("trial %d: topological violation %d vs %d", trial, id, par)
				}
			}
		}
		// Path symmetry of distance, asymmetry of direction counts.
		ids := g.ConceptIDs()
		for i := 0; i < 30; i++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			pa, oka := g.ShortestSemanticPath(a, b)
			pb, okb := g.ShortestSemanticPath(b, a)
			if oka != okb {
				t.Fatalf("path existence not symmetric for %d,%d", a, b)
			}
			if !oka {
				continue
			}
			if pa.Len() != pb.Len() {
				t.Fatalf("path length not symmetric: %d vs %d", pa.Len(), pb.Len())
			}
			if g := pa.Generalizations(); g < 0 || g > pa.Len() {
				t.Fatalf("generalization count %d out of range for path of length %d", g, pa.Len())
			}
			// LCS must exist on a rooted DAG.
			if _, ok := g.LCS(a, b); !ok {
				t.Fatalf("LCS(%d,%d) missing on rooted DAG", a, b)
			}
		}
	}
}

func TestNeighborsMonotoneInRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomDAG(rng, 50)
	ids := g.ConceptIDs()
	for i := 0; i < 10; i++ {
		src := ids[rng.Intn(len(ids))]
		prev := 0
		for r := 0; r <= 6; r++ {
			n := len(g.NeighborsWithinHops(src, r))
			if n < prev {
				t.Fatalf("neighbor count decreased with radius: r=%d n=%d prev=%d", r, n, prev)
			}
			prev = n
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := buildDiamond(t)
	if err := g.AddShortcutEdge(6, 1, 3); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := g.WriteDOT(&buf, 0, 0, map[ConceptID]bool{4: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph eks", `label="thing"`, "style=dashed", `label="3"`, "fillcolor=lightyellow"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Neighbourhood view includes only nearby nodes.
	buf.Reset()
	if err := g.WriteDOT(&buf, 6, 1, nil); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, `label="deep"`) || !strings.Contains(out, `label="join"`) {
		t.Error("neighbourhood view missing center or neighbour")
	}
	if strings.Contains(out, `label="leaf-right"`) {
		t.Error("neighbourhood view leaked a distant node")
	}
	// Unknown center fails.
	if err := g.WriteDOT(&buf, 404, 1, nil); err == nil {
		t.Error("unknown center must fail")
	}
}

// TestConcurrentReads documents that a fully built Graph is safe for
// concurrent readers (the HTTP server relies on this); mutation is not.
func TestConcurrentReads(t *testing.T) {
	g := buildDiamond(t)
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- true }()
			for i := 0; i < 500; i++ {
				g.NeighborsWithinHops(6, 3)
				g.ShortestSemanticPath(6, 5)
				g.LCS(6, 5)
				g.LookupName("deep")
				g.Ancestors(6)
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestDescendantCountsMatchWalks pins the one-pass counts to the per-concept
// walk (itself pinned to Descendants in dense_equiv_test.go) on DAGs whose
// concepts mostly have two parents, on ones that are mostly trees with a few
// shared descendants — where both the sum and the fallback walk run — and
// with shortcut edges, which neither may follow.
func TestDescendantCountsMatchWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(200)
		g := randomDAG(rng, n)
		if trial%2 == 1 { // mostly a tree
			g = New()
			_ = g.AddConcept(Concept{ID: 1, Name: "root"})
			_ = g.SetRoot(1)
			for id := ConceptID(2); id <= ConceptID(n); id++ {
				_ = g.AddConcept(Concept{ID: id, Name: "t" + itoa(int(id))})
				_ = g.AddSubsumption(id, ConceptID(1+rng.Intn(int(id)-1)))
				if rng.Intn(20) == 0 {
					_ = g.AddSubsumption(id, ConceptID(1+rng.Intn(int(id)-1))) // a duplicate edge is refused
				}
			}
		}
		ids := g.ConceptIDs()
		for i := 0; i < 5; i++ {
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if g.Ancestors(a)[b] {
				_ = g.AddShortcutEdge(a, b, 2)
			}
		}
		counts := g.DescendantCounts()
		if len(counts) != len(ids) {
			t.Fatalf("trial %d: %d counts for %d concepts", trial, len(counts), len(ids))
		}
		for i, id := range ids {
			if want := g.DescendantCount(id); int(counts[i]) != want {
				t.Fatalf("trial %d: DescendantCounts[%d] = %d, DescendantCount(%d) = %d", trial, i, counts[i], id, want)
			}
		}
	}
}
