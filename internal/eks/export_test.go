package eks

import "sort"

// Hooks for the external eks_test package, which cross-checks the frozen
// view's kernels on synthkb worlds (synthkb imports eks, so those tests
// cannot live in this package).

// RandomDAG is the random layered DAG of the in-package property tests.
var RandomDAG = randomDAG

// ViewBuilds reports how many times the frozen view has been built.
func (g *Graph) ViewBuilds() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.builds
}

// ScratchLent reports how many traversal scratches are out of the view's
// pool: zero whenever no traversal is in flight, or one leaked.
func (g *Graph) ScratchLent() int64 { return g.view().lent.Load() }

// LegacyOracle holds the original map-based traversals as the reference the
// kernels are checked against. It reads the builder's edge list directly, so
// it shares no CSR construction with the code under test.
type LegacyOracle struct {
	known    map[ConceptID]bool
	up, down map[ConceptID][]Edge
}

// NewLegacyOracle snapshots a mutable graph's builder state.
func NewLegacyOracle(g *Graph) *LegacyOracle {
	o := &LegacyOracle{
		known: make(map[ConceptID]bool, len(g.concepts)),
		up:    make(map[ConceptID][]Edge),
		down:  make(map[ConceptID][]Edge),
	}
	for _, c := range g.concepts {
		o.known[c.ID] = true
	}
	for _, be := range g.edges {
		e := Edge{From: g.concepts[be.from].ID, To: g.concepts[be.to].ID, Dist: int(be.dist), Shortcut: be.shortcut}
		o.up[e.From] = append(o.up[e.From], e)
		o.down[e.To] = append(o.down[e.To], e)
	}
	return o
}

// NeighborsWithinHops is the original map-based BFS.
func (o *LegacyOracle) NeighborsWithinHops(from ConceptID, radius int) []Neighbor {
	if !o.known[from] || radius < 0 {
		return nil
	}
	dist := map[ConceptID]int{from: 0}
	frontier := []ConceptID{from}
	var out []Neighbor
	for hops := 1; hops <= radius && len(frontier) > 0; hops++ {
		var next []ConceptID
		for _, cur := range frontier {
			for _, e := range o.up[cur] {
				if _, seen := dist[e.To]; !seen {
					dist[e.To] = hops
					next = append(next, e.To)
					out = append(out, Neighbor{ID: e.To, Hops: hops})
				}
			}
			for _, e := range o.down[cur] {
				if _, seen := dist[e.From]; !seen {
					dist[e.From] = hops
					next = append(next, e.From)
					out = append(out, Neighbor{ID: e.From, Hops: hops})
				}
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hops != out[j].Hops {
			return out[i].Hops < out[j].Hops
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// UpDistances is the reference for the upward semantic-distance Dijkstra: a
// label-correcting search over the up edges, with no heap to share with the
// kernel.
func (o *LegacyOracle) UpDistances(id ConceptID) map[ConceptID]int {
	if !o.known[id] {
		return nil
	}
	dist := map[ConceptID]int{id: 0}
	for work := []ConceptID{id}; len(work) > 0; work = work[1:] {
		cur := work[0]
		for _, e := range o.up[cur] {
			nd := dist[cur] + e.Dist
			if old, seen := dist[e.To]; !seen || nd < old {
				dist[e.To] = nd
				work = append(work, e.To)
			}
		}
	}
	return dist
}
