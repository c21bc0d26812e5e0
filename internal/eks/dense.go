package eks

import "slices"

// The traversal kernels of the frozen view. They run over int32 node indices
// with epoch-stamped visited/distance arrays drawn from the view's
// sync.Pool, so the online hot path (candidate BFS, subsumer-distance
// Dijkstra) neither allocates per query nor clears O(n) state between
// queries.

// denseScratch is the reusable per-traversal state. stamp[i] == epoch marks
// node i as visited by the current traversal; bumping the epoch invalidates
// every mark in O(1). The slices are sized to the node count at build time.
type denseScratch struct {
	epoch   uint32
	stamp   []uint32
	dist    []int32
	queue   []int32 // BFS frontier / scratch node list
	touched []int32 // nodes reached by the current traversal
	heap    []heapNode
}

// heapNode is a binary-heap entry for the dense Dijkstra.
type heapNode struct {
	dist int32
	node int32
}

// next prepares the scratch for a new traversal.
func (s *denseScratch) next() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear stamps once every 2^32 traversals
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	s.touched = s.touched[:0]
	s.heap = s.heap[:0]
}

func (v *frozen) getScratch() *denseScratch {
	v.lent.Add(1)
	s := v.scratch.Get().(*denseScratch)
	s.next()
	return s
}

func (v *frozen) putScratch(s *denseScratch) {
	v.lent.Add(-1)
	v.scratch.Put(s)
}

// HopFrontier is the traversal of Algorithm 2 line 2: a level-synchronous
// breadth-first walk from one concept that treats every edge — native or
// shortcut, either direction — as one hop. It is resumable: each Advance
// expands exactly one more hop and the visited marks and the queue survive
// between calls, so growing a search radius costs only the new level. And it
// is filtered: a node-indexed report column decides which reached nodes are
// handed back, so a caller interested in a sparse subset (the flagged
// concepts) never sees, copies or sorts the rest.
//
// The walk borrows pooled scratch; Close returns it and must be called on
// every exit path. A HopFrontier is single-goroutine and must not be copied
// after the first Advance.
type HopFrontier struct {
	v      *frozen
	s      *denseScratch
	report []int32
	level  int // start of the outermost reached level in s.queue
}

// HopFrontier starts a walk at from. report is indexed by concept position
// in ConceptIDs() order: a node is reported by Advance as report[position]
// when that value is non-negative and skipped otherwise; a nil report
// reports every node as its position. ok is false for an unknown concept, in
// which case nothing was borrowed. A report column of the wrong length is a
// caller bug and panics.
func (g *Graph) HopFrontier(from ConceptID, report []int32) (f HopFrontier, ok bool) {
	v := g.view()
	src, ok := v.node(from)
	if !ok {
		return HopFrontier{}, false
	}
	if report != nil && len(report) != len(v.IDs) {
		panic("eks: HopFrontier report column does not match the graph")
	}
	s := v.getScratch()
	s.stamp[src] = s.epoch
	s.queue = append(s.queue, src)
	return HopFrontier{v: v, s: s, report: report}, true
}

// Advance expands the walk by one hop and returns the report values of the
// nodes first reached at that distance, in visiting order. The slice is
// scratch, valid until the next Advance or Close. Once the component is
// exhausted every further call returns an empty level in constant time.
// This is the only breadth-first body of the package.
func (f *HopFrontier) Advance() []int32 {
	v, s := f.v, f.s
	stamp, epoch, queue, out := s.stamp, s.epoch, s.queue, s.touched[:0]
	end := len(queue)
	for _, cur := range queue[f.level:end] {
		for _, adj := range [2][]int32{v.UpTo[v.UpOff[cur]:v.UpOff[cur+1]], v.DownTo[v.DownOff[cur]:v.DownOff[cur+1]]} {
			for _, nb := range adj {
				if stamp[nb] == epoch {
					continue
				}
				stamp[nb] = epoch
				queue = append(queue, nb)
				if f.report == nil {
					out = append(out, nb)
				} else if r := f.report[nb]; r >= 0 {
					out = append(out, r)
				}
			}
		}
	}
	f.level = end
	s.queue, s.touched = queue, out
	return out
}

// Reached returns how many nodes the walk has visited so far, the source
// excluded and reported or not.
func (f *HopFrontier) Reached() int { return len(f.s.queue) - 1 }

// Close returns the walk's scratch to the pool. It is idempotent; the
// frontier must not be used afterwards.
func (f *HopFrontier) Close() {
	if f.s != nil {
		f.v.putScratch(f.s)
		f.s = nil
	}
}

// dijkstraUp computes the minimal upward semantic distance from src to
// every subsumer of src (src itself at 0), following native and shortcut
// edges upward with their attached distances. Reached nodes (including src)
// land in s.touched with distances in s.dist.
func (v *frozen) dijkstraUp(src int32, s *denseScratch) {
	s.stamp[src] = s.epoch
	s.dist[src] = 0
	s.touched = append(s.touched, src)
	s.heap = append(s.heap, heapNode{dist: 0, node: src})
	for len(s.heap) > 0 {
		var top heapNode
		top, s.heap = popHeap(s.heap)
		if top.dist > s.dist[top.node] {
			continue // stale entry
		}
		for k := v.UpOff[top.node]; k < v.UpOff[top.node+1]; k++ {
			nb := v.UpTo[k]
			nd := top.dist + v.UpDist[k]
			if s.stamp[nb] != s.epoch {
				s.stamp[nb] = s.epoch
				s.dist[nb] = nd
				s.touched = append(s.touched, nb)
				s.heap = append(s.heap, heapNode{dist: nd, node: nb})
				siftUp(s.heap)
			} else if nd < s.dist[nb] {
				s.dist[nb] = nd
				s.heap = append(s.heap, heapNode{dist: nd, node: nb})
				siftUp(s.heap)
			}
		}
	}
}

// popHeap removes the minimum entry.
func popHeap(h []heapNode) (heapNode, []heapNode) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	siftDown(h)
	return top, h
}

func siftUp(h []heapNode) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []heapNode) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].dist < h[min].dist {
			min = l
		}
		if r < len(h) && h[r].dist < h[min].dist {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// countDescendants walks native down edges from src and counts the distinct
// nodes reached, excluding src.
func (v *frozen) countDescendants(src int32, s *denseScratch) int {
	s.stamp[src] = s.epoch
	s.queue = append(s.queue, src)
	count := 0
	for len(s.queue) > 0 {
		cur := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for k := v.DownOff[cur]; k < v.DownNativeEnd[cur]; k++ {
			nb := v.DownTo[k]
			if s.stamp[nb] != s.epoch {
				s.stamp[nb] = s.epoch
				s.queue = append(s.queue, nb)
				count++
			}
		}
	}
	return count
}

// SubsumerVec is an immutable vector of upward semantic distances from one
// concept to each of its subsumers (the concept itself at distance 0),
// sorted by ascending ConceptID. It is the flat counterpart of UpDistances
// (which leaves the concept itself out), shareable across goroutines and
// cacheable without copying; callers must not mutate it.
type SubsumerVec struct {
	ids  []ConceptID
	dist []int32
}

// Len returns the number of subsumers (including the concept itself).
func (v SubsumerVec) Len() int { return len(v.ids) }

// At returns the i-th (ConceptID, distance) pair in ascending ID order.
func (v SubsumerVec) At(i int) (ConceptID, int) { return v.ids[i], int(v.dist[i]) }

// SubsumerVec computes the subsumer-distance vector of id. ok is false for
// an unknown concept.
func (g *Graph) SubsumerVec(id ConceptID) (SubsumerVec, bool) {
	v := g.view()
	src, ok := v.node(id)
	if !ok {
		return SubsumerVec{}, false
	}
	s := v.getScratch()
	v.dijkstraUp(src, s)
	slices.Sort(s.touched)
	vec := SubsumerVec{
		ids:  make([]ConceptID, len(s.touched)),
		dist: make([]int32, len(s.touched)),
	}
	for i, node := range s.touched {
		vec.ids[i] = v.IDs[node]
		vec.dist[i] = s.dist[node]
	}
	v.putScratch(s)
	return vec, true
}

// CommonSubsumers merge-joins two subsumer vectors, calling visit for every
// concept present in both with the respective distances. Both vectors are
// ID-ascending, so the join is a linear merge with no allocation.
func CommonSubsumers(a, b SubsumerVec, visit func(c ConceptID, da, db int)) {
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] < b.ids[j]:
			i++
		case a.ids[i] > b.ids[j]:
			j++
		default:
			visit(a.ids[i], int(a.dist[i]), int(b.dist[j]))
			i++
			j++
		}
	}
}
