package eks

import (
	"container/heap"
	"slices"
)

// Neighbor is a concept found within some radius of a source concept,
// together with its hop distance (application metric: every edge counts 1).
type Neighbor struct {
	ID   ConceptID
	Hops int
}

// NeighborsWithinHops returns every concept, excluding from itself, whose
// hop distance from `from` is at most radius, treating every edge — native
// or shortcut, in either direction — as one hop: the unfiltered HopFrontier
// run radius levels out. Results are ordered by increasing hop count, then
// by ID.
func (g *Graph) NeighborsWithinHops(from ConceptID, radius int) []Neighbor {
	if radius < 0 {
		return nil
	}
	f, ok := g.HopFrontier(from, nil)
	if !ok {
		return nil
	}
	defer f.Close()
	out := []Neighbor{}
	for hops := 1; hops <= radius; hops++ {
		level := f.Advance()
		if len(level) == 0 {
			break
		}
		slices.Sort(level) // node order is ID order
		for _, node := range level {
			out = append(out, Neighbor{ID: f.v.IDs[node], Hops: hops})
		}
	}
	return out
}

// Step is one original subsumption hop along a path between two concepts.
// Generalization is true when the hop follows the subsumption direction
// (child to parent); false when it moves against it (specialization).
type Step struct {
	Generalization bool
}

// Path is a sequence of original hops from a source concept to a target
// concept. Its length is the semantic distance |D| of Equation 4; traversing
// a shortcut edge of attached distance d contributes d identical hops, so
// paths are invariant under the offline customization.
type Path struct {
	Steps []Step
}

// Len returns the semantic distance |D|.
func (p Path) Len() int { return len(p.Steps) }

// Generalizations returns how many hops of the path are generalizations.
func (p Path) Generalizations() int {
	n := 0
	for _, s := range p.Steps {
		if s.Generalization {
			n++
		}
	}
	return n
}

// pqItem is a priority-queue entry for the path-reconstructing Dijkstra over
// the semantic metric. Ties on distance pop the smaller node first.
type pqItem struct {
	node int32
	dist int32
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// hop is the edge a shortest-path search entered a node by.
type hop struct {
	prev int32 // predecessor node
	dist int32 // original hops the edge stands for
	gen  bool  // traversed child→parent
}

// shortestHops runs Dijkstra over the semantic metric from src until dst is
// settled, following up edges and, when down is set, down edges too. It
// returns each reached node's entering hop; ok is false when dst is
// unreachable. Among equal-length paths the smaller predecessor node — dense
// node order is ConceptID order — wins, making the result deterministic.
func (v *frozen) shortestHops(src, dst int32, down bool) (prev map[int32]hop, ok bool) {
	distTo := map[int32]int32{src: 0}
	prev = map[int32]hop{}
	h := &pq{{node: src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.dist > distTo[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		relax := func(nb, w int32, gen bool) {
			nd := it.dist + w
			old, seen := distTo[nb]
			if !seen || nd < old || (nd == old && it.node < prev[nb].prev) {
				distTo[nb] = nd
				prev[nb] = hop{prev: it.node, dist: w, gen: gen}
				heap.Push(h, pqItem{node: nb, dist: nd})
			}
		}
		for k := v.UpOff[it.node]; k < v.UpOff[it.node+1]; k++ {
			relax(v.UpTo[k], v.UpDist[k], true)
		}
		if !down {
			continue
		}
		for k := v.DownOff[it.node]; k < v.DownOff[it.node+1]; k++ {
			relax(v.DownTo[k], v.DownDist[k], false)
		}
	}
	_, ok = distTo[dst]
	return prev, ok
}

// ShortestSemanticPath returns a minimum-semantic-distance path from `from`
// to `to`, expanding shortcut edges into their attached number of hops. The
// boolean result is false when the concepts are disconnected or unknown.
//
// Among equal-length paths the one that is lexicographically smallest by
// (predecessor ID) is returned, making the result deterministic.
func (g *Graph) ShortestSemanticPath(from, to ConceptID) (Path, bool) {
	v := g.view()
	src, okFrom := v.node(from)
	dst, okTo := v.node(to)
	if !okFrom || !okTo {
		return Path{}, false
	}
	prev, ok := v.shortestHops(src, dst, true)
	if !ok {
		return Path{}, false
	}
	// Reconstruct, expanding each edge into its attached number of hops.
	var steps []Step
	for cur := dst; cur != src; cur = prev[cur].prev {
		for i := int32(0); i < prev[cur].dist; i++ {
			steps = append(steps, Step{Generalization: prev[cur].gen})
		}
	}
	slices.Reverse(steps)
	return Path{Steps: steps}, true
}

// PathEdge is one traversed edge of an explained relaxation path: the
// concepts it connects and the original (pre-customization) semantic
// distance it carries — 1 for a native subsumption, the attached distance
// for a shortcut.
type PathEdge struct {
	From ConceptID
	To   ConceptID
	Dist int
}

// UpPathTo returns the minimum-semantic-distance upward path from `from` to
// one of its subsumers `to`, as the sequence of edges traversed (native or
// shortcut, each carrying its original distance). Only upward edges are
// followed, so the result is the generalization half of the canonical
// up-then-down path the similarity measure scores. ok is false when `to` is
// not an upward-reachable subsumer of `from`.
//
// Among equal-length paths the one that is lexicographically smallest by
// predecessor ID is returned, the same tie-break ShortestSemanticPath uses,
// making the result deterministic across runs.
func (g *Graph) UpPathTo(from, to ConceptID) ([]PathEdge, bool) {
	v := g.view()
	src, okFrom := v.node(from)
	dst, okTo := v.node(to)
	if !okFrom || !okTo {
		return nil, false
	}
	prev, ok := v.shortestHops(src, dst, false)
	if !ok {
		return nil, false
	}
	var out []PathEdge
	for cur := dst; cur != src; cur = prev[cur].prev {
		out = append(out, PathEdge{From: v.IDs[prev[cur].prev], To: v.IDs[cur], Dist: int(prev[cur].dist)})
	}
	slices.Reverse(out)
	return out, true
}

// SemanticDistance returns the length of the shortest semantic path between
// a and b, and false when disconnected.
func (g *Graph) SemanticDistance(a, b ConceptID) (int, bool) {
	p, ok := g.ShortestSemanticPath(a, b)
	if !ok {
		return 0, false
	}
	return p.Len(), true
}

// LCSResult is the outcome of a least-common-subsumer computation: the set
// of minimal common subsumers (more than one only on ties) and the combined
// semantic distance from the pair to each of them.
type LCSResult struct {
	IDs      []ConceptID
	Combined int // distUp(a, lcs) + distUp(b, lcs)
}

// LCS returns the least common subsumer(s) of a and b per the paper's
// footnote 1: among all common subsumers (a concept C with a ⊑* C and
// b ⊑* C, where a concept subsumes itself), choose those with the shortest
// combined upward path to the pair; all ties are returned so the caller can
// average their information content. ok is false when a and b share no
// subsumer (cannot happen on a validated rooted graph).
func (g *Graph) LCS(a, b ConceptID) (LCSResult, bool) {
	da := g.upDistances(a)
	db := g.upDistances(b)
	if da == nil || db == nil {
		return LCSResult{}, false
	}
	best := -1
	var ids []ConceptID
	for id, x := range da {
		y, ok := db[id]
		if !ok {
			continue
		}
		sum := x + y
		switch {
		case best == -1 || sum < best:
			best = sum
			ids = ids[:0]
			ids = append(ids, id)
		case sum == best:
			ids = append(ids, id)
		}
	}
	if best == -1 {
		return LCSResult{}, false
	}
	slices.Sort(ids)
	return LCSResult{IDs: ids, Combined: best}, true
}

// upDistances returns the minimal upward semantic distance from id to every
// subsumer of id (including id itself at distance 0), following native and
// shortcut edges upward only; nil for an unknown concept. Only the result map
// is allocated. The shortest up-then-down path between a and b runs through
// the common subsumer minimizing upDistances(a)[c] + upDistances(b)[c].
func (g *Graph) upDistances(id ConceptID) map[ConceptID]int {
	v := g.view()
	src, ok := v.node(id)
	if !ok {
		return nil
	}
	s := v.getScratch()
	v.dijkstraUp(src, s)
	dist := make(map[ConceptID]int, len(s.touched))
	for _, node := range s.touched {
		dist[v.IDs[node]] = int(s.dist[node])
	}
	v.putScratch(s)
	return dist
}

// UpDistances returns the minimal upward semantic distance from id to every
// subsumer of id, excluding id itself. Shortcut edges participate with
// their attached distances, so results are invariant under customization.
// It returns nil for an unknown concept.
func (g *Graph) UpDistances(id ConceptID) map[ConceptID]int {
	d := g.upDistances(id)
	if d == nil {
		return nil
	}
	delete(d, id)
	return d
}

// HasEdge reports whether any edge (native or shortcut) runs from child to
// parent.
func (g *Graph) HasEdge(child, parent ConceptID) bool {
	v := g.view()
	c, okChild := v.node(child)
	p, okParent := v.node(parent)
	return okChild && okParent && slices.Contains(v.UpTo[v.UpOff[c]:v.UpOff[c+1]], p)
}

// DepthFromRoot returns the minimal semantic distance from the root down to
// id (equivalently, from id up to the root). ok is false when no root is
// set or id does not reach it.
func (g *Graph) DepthFromRoot(id ConceptID) (int, bool) {
	if !g.hasRoot {
		return 0, false
	}
	d, ok := g.upDistances(id)[g.root]
	return d, ok
}
