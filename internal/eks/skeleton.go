package eks

import "slices"

// Skeleton is the arc set a walk filtered by a report column runs on: each
// node's arcs, in the unfiltered walk's order — up, then down — restricted to
// the nodes such a walk must enter. It leaves out the pass-through nodes:
// unreported nodes whose out-neighbours are pairwise joined by arcs and whose
// every in-arc comes from an out-neighbour.
//
// Dropping them changes no answer. A node strictly inside a shortest path has
// its predecessor (an in-arc, so an out-neighbour) and its successor among its
// out-neighbours; were it pass-through, the arc joining the two would shorten
// the path. So every other node keeps its hop distance. And a pass-through
// node reached at hop h >= 1 discovers nothing: each of its out-neighbours is
// the node that reached it or joined to that node by an arc, so already
// reached by hop h. Leaving it out of the queue leaves the visiting order of
// every level as it was. The walk's start is entered whatever it is, which is
// why a pass-through node keeps its arcs too: a walk may start there.
//
// A Skeleton is immutable and safe for concurrent use. It holds the graph's
// read view as it was when derived; the graph must not change afterwards.
type Skeleton struct {
	v      *frozen
	report []int32
	adj    [1]arcs
}

// Skeleton derives the skeleton of report, a column indexed by concept
// position in ConceptIDs() order whose non-negative values a walk reports.
// The derivation reads every arc a few times and allocates about twice the
// graph's arc columns while it runs. A report column of the wrong length is a
// caller bug and panics.
func (g *Graph) Skeleton(report []int32) *Skeleton {
	v := g.view()
	n := len(v.IDs)
	if len(report) != n {
		panic("eks: Skeleton report column does not match the graph")
	}
	enter := v.mustEnter(report)
	off := make([]int32, n+1)
	var to []int32
	for i := 0; i < n; i++ {
		for _, a := range v.walk {
			for _, nb := range a.to[a.off[i]:a.off[i+1]] {
				if enter[nb] {
					to = append(to, nb)
				}
			}
		}
		off[i+1] = int32(len(to))
	}
	return &Skeleton{v: v, report: report, adj: [1]arcs{{off, to}}}
}

// HopFrontier starts a walk at from over the skeleton: Advance reports the
// report value of each reported node it reaches, at the hop and in the order
// the unfiltered walk reaches it. ok is false for an unknown concept, in
// which case nothing was borrowed.
func (k *Skeleton) HopFrontier(from ConceptID) (HopFrontier, bool) {
	return k.v.hopFrontier(from, k.adj[:], k.report)
}

// mustEnter marks the nodes a walk filtered by report must enter: the
// reported ones and every node that is not pass-through. Both conditions are
// tested on the arcs the walk follows, so a graph whose down lists are not the
// transpose of its up lists (NewFlatGraph does not check that they are) is
// walked exactly as the unfiltered walk would.
func (v *frozen) mustEnter(report []int32) []bool {
	n := len(v.IDs)
	// Each node's distinct out-neighbours, ascending: an arc test is a
	// binary search.
	nbOff := make([]int32, n+1)
	nbs := make([]int32, 0, len(v.UpTo)+len(v.DownTo))
	for i := 0; i < n; i++ {
		lo := len(nbs)
		nbs = append(nbs, v.UpTo[v.UpOff[i]:v.UpOff[i+1]]...)
		nbs = append(nbs, v.DownTo[v.DownOff[i]:v.DownOff[i+1]]...)
		slices.Sort(nbs[lo:])
		nbs = nbs[:lo+len(slices.Compact(nbs[lo:]))]
		nbOff[i+1] = int32(len(nbs))
	}
	out := func(i int32) []int32 { return nbs[nbOff[i]:nbOff[i+1]] }
	arc := func(a, b int32) bool {
		_, ok := slices.BinarySearch(out(a), b)
		return ok
	}
	// Out-neighbours joined pairwise: each must have an arc to all the others.
	clique := func(x int32) bool {
		nx := out(x)
		for _, a := range nx {
			if len(out(a)) < len(nx)-1 {
				return false
			}
			for _, b := range nx {
				if b != a && !arc(a, b) {
					return false
				}
			}
		}
		return true
	}
	enter := make([]bool, n)
	for i := range enter {
		enter[i] = report[i] >= 0 || !clique(int32(i))
	}
	// Every arc into a pass-through node comes from an out-neighbour of it.
	for p := int32(0); p < int32(n); p++ {
		for _, x := range out(p) {
			if !enter[x] && !arc(x, p) {
				enter[x] = true
			}
		}
	}
	return enter
}
