package eks

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"medrelax/internal/idindex"
)

// FlatGraphData is the column layout of a frozen graph, which is also the
// layout of the graph sections of a flat (v4) bundle: concepts renumbered
// into the dense range [0, n) in ascending ConceptID order, with both
// adjacency directions and the name index flattened into CSR offset/pool
// slices. Slices handed to NewFlatGraph may alias a memory mapping; slices
// obtained from Graph.FlatData alias the graph. Neither side mutates them.
type FlatGraphData struct {
	IDs    []ConceptID // ascending
	Names  []string    // one per concept, non-empty
	SynOff []int32     // len(IDs)+1, CSR into Syns
	Syns   []string
	Root   ConceptID

	// Node i's up edges are UpTo[UpOff[i]:UpOff[i+1]] (dense node targets)
	// with semantic distances UpDist[...]. Native edges precede shortcut
	// edges within a node's range, each kind in insertion order, so
	// native-only scans stop at UpNativeEnd[i]; likewise downward.
	UpOff, DownOff             []int32 // len(IDs)+1
	UpTo, DownTo               []int32
	UpDist, DownDist           []int32
	UpNativeEnd, DownNativeEnd []int32 // len(IDs), absolute positions

	NameKeys []string // sorted ascending, unique, normalized
	KeyOff   []int32  // len(NameKeys)+1, CSR into KeyIDs
	KeyIDs   []ConceptID
}

// frozen is the one read representation of a Graph: the flat columns plus
// the traversal scratch pool sized to them. Every exported read and every
// kernel runs on it, whether the columns were built on the heap from the
// builder state or adopted from a mapped bundle. Once constructed it is
// immutable and safe for concurrent use.
type frozen struct {
	FlatGraphData
	// walk is the unfiltered hop walk's arcs: the up lists, then the down
	// lists.
	walk    [2]arcs
	scratch sync.Pool // *denseScratch
	// lent counts scratches out of the pool, so a test can tell a traversal
	// that returned without giving its scratch back.
	lent atomic.Int64
}

func newFrozen(d FlatGraphData) *frozen {
	v := &frozen{FlatGraphData: d, walk: [2]arcs{{d.UpOff, d.UpTo}, {d.DownOff, d.DownTo}}}
	n := len(d.IDs)
	v.scratch.New = func() any {
		return &denseScratch{
			stamp: make([]uint32, n),
			dist:  make([]int32, n),
		}
	}
	return v
}

// view returns the frozen view, building it under the mutex when a mutation
// dropped it. Concurrent readers share one view.
func (g *Graph) view() *frozen {
	if v := g.built.Load(); v != nil {
		return v
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if v := g.built.Load(); v != nil {
		return v
	}
	v := newFrozen(g.columns())
	g.builds++
	g.built.Store(v)
	return v
}

// Freeze eagerly builds the frozen view. Calling it is optional — the view
// is built by the first read — but building it at a known point (e.g. right
// after offline customization) keeps first-query latency flat.
func (g *Graph) Freeze() { g.view() }

// FlatData returns the frozen view's columns, the form a flat bundle
// stores. The slices alias the graph and must not be modified.
func (g *Graph) FlatData() FlatGraphData { return g.view().FlatGraphData }

// columns lays the builder state out as flat columns.
func (g *Graph) columns() FlatGraphData {
	n := len(g.concepts)
	d := FlatGraphData{
		IDs:    make([]ConceptID, n),
		Names:  make([]string, n),
		SynOff: make([]int32, n+1),
		Root:   g.root,
	}
	bySlot := make([]int32, n) // dense node -> concept slot
	for i := range bySlot {
		bySlot[i] = int32(i)
	}
	slices.SortFunc(bySlot, func(a, b int32) int { return cmp.Compare(g.concepts[a].ID, g.concepts[b].ID) })
	node := make([]int32, n) // concept slot -> dense node
	for i, s := range bySlot {
		c := &g.concepts[s]
		node[s] = int32(i)
		d.IDs[i], d.Names[i] = c.ID, c.Name
		d.Syns = append(d.Syns, c.Synonyms...)
		d.SynOff[i+1] = int32(len(d.Syns))
	}
	d.UpOff, d.UpTo, d.UpDist, d.UpNativeEnd = g.adjacency(node, true)
	d.DownOff, d.DownTo, d.DownDist, d.DownNativeEnd = g.adjacency(node, false)

	// Name index: group the surface forms by key, keeping each key's IDs in
	// the order they were indexed and dropping repeats.
	order := make([]int32, len(g.names))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := strings.Compare(g.names[a].key, g.names[b].key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	d.KeyOff = []int32{0}
	for _, i := range order {
		e := g.names[i]
		if k := len(d.NameKeys); k == 0 || d.NameKeys[k-1] != e.key {
			d.NameKeys = append(d.NameKeys, e.key)
			d.KeyOff = append(d.KeyOff, d.KeyOff[k])
		}
		k := len(d.NameKeys)
		if !slices.Contains(d.KeyIDs[d.KeyOff[k-1]:], e.id) {
			d.KeyIDs = append(d.KeyIDs, e.id)
			d.KeyOff[k]++
		}
	}
	return d
}

// adjacency lays one direction of the builder's edge list out as CSR over
// dense nodes: a counting pass sizes each node's native and shortcut
// segments, a second pass drops every edge into its segment in insertion
// order.
func (g *Graph) adjacency(node []int32, up bool) (off, to, dist, nativeEnd []int32) {
	n := len(node)
	ends := func(e builderEdge) (src, dst int32) {
		if up {
			return node[e.from], node[e.to]
		}
		return node[e.to], node[e.from]
	}
	off = make([]int32, n+1)
	nativeEnd = make([]int32, n)
	for _, e := range g.edges {
		src, _ := ends(e)
		off[src+1]++
		if !e.shortcut {
			nativeEnd[src]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
		nativeEnd[i] += off[i]
	}
	to = make([]int32, len(g.edges))
	dist = make([]int32, len(g.edges))
	nextNative := slices.Clone(off[:n])
	nextShortcut := slices.Clone(nativeEnd)
	for _, e := range g.edges {
		src, dst := ends(e)
		next := nextNative
		if e.shortcut {
			next = nextShortcut
		}
		to[next[src]], dist[next[src]] = dst, e.dist
		next[src]++
	}
	return off, to, dist, nativeEnd
}

// NewFlatGraph adopts flat-bundle sections as the frozen view of a read-only
// *Graph. It validates the structural invariants the mutating API enforces
// piecewise — ascending IDs, monotonic in-bounds CSR offsets,
// native/shortcut distance floors — so traversals over a hostile bundle stay
// memory-safe. Mutating methods on the returned graph fail.
func NewFlatGraph(d FlatGraphData) (*Graph, error) {
	n := len(d.IDs)
	if len(d.Names) != n {
		return nil, fmt.Errorf("eks: flat graph: %d names for %d concepts", len(d.Names), n)
	}
	for i := 1; i < n; i++ {
		if d.IDs[i] <= d.IDs[i-1] {
			return nil, fmt.Errorf("eks: flat graph: concept ids not strictly ascending at %d", i)
		}
	}
	for i, name := range d.Names {
		if name == "" {
			return nil, fmt.Errorf("eks: flat graph: concept %d has empty name", d.IDs[i])
		}
	}
	if err := checkCSR("synonyms", n, d.SynOff, len(d.Syns)); err != nil {
		return nil, err
	}
	if err := checkAdjacency("up", n, d.UpOff, d.UpTo, d.UpDist, d.UpNativeEnd); err != nil {
		return nil, err
	}
	if err := checkAdjacency("down", n, d.DownOff, d.DownTo, d.DownDist, d.DownNativeEnd); err != nil {
		return nil, err
	}
	if err := checkCSR("name index", len(d.NameKeys), d.KeyOff, len(d.KeyIDs)); err != nil {
		return nil, err
	}
	for i := 1; i < len(d.NameKeys); i++ {
		if d.NameKeys[i] <= d.NameKeys[i-1] {
			return nil, fmt.Errorf("eks: flat graph: name keys not strictly ascending at %d", i)
		}
	}
	ids := idindex.New(d.IDs)
	for _, id := range d.KeyIDs {
		if _, ok := ids.Find(id); !ok {
			return nil, fmt.Errorf("eks: flat graph: name index references unknown concept %d", id)
		}
	}
	if _, ok := ids.Find(d.Root); !ok {
		return nil, fmt.Errorf("eks: flat graph: root %d not a concept", d.Root)
	}
	g := &Graph{readOnly: true, n: n, root: d.Root, hasRoot: true}
	g.built.Store(newFrozen(d))
	return g, nil
}

// checkCSR validates a CSR offset slice: length n+1, starts at 0, ends at
// the pool length, and never decreases.
func checkCSR(what string, n int, off []int32, pool int) error {
	if len(off) != n+1 {
		return fmt.Errorf("eks: flat graph: %s offsets have length %d, want %d", what, len(off), n+1)
	}
	if off[0] != 0 {
		return fmt.Errorf("eks: flat graph: %s offsets start at %d", what, off[0])
	}
	if int(off[n]) != pool {
		return fmt.Errorf("eks: flat graph: %s offsets end at %d, pool has %d", what, off[n], pool)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("eks: flat graph: %s offsets decrease at %d", what, i)
		}
	}
	return nil
}

// checkAdjacency validates one CSR direction: offsets, in-range targets, no
// self edges, distance floors (1 native, 2 shortcut), and a native/shortcut
// boundary inside each node's range.
func checkAdjacency(dir string, n int, off, to, dist, nativeEnd []int32) error {
	if len(to) != len(dist) {
		return fmt.Errorf("eks: flat graph: %s edges have %d targets, %d distances", dir, len(to), len(dist))
	}
	if err := checkCSR(dir+" edges", n, off, len(to)); err != nil {
		return err
	}
	if len(nativeEnd) != n {
		return fmt.Errorf("eks: flat graph: %s native boundaries have length %d, want %d", dir, len(nativeEnd), n)
	}
	for i := 0; i < n; i++ {
		lo, hi, ne := off[i], off[i+1], nativeEnd[i]
		if ne < lo || ne > hi {
			return fmt.Errorf("eks: flat graph: %s native boundary %d outside [%d,%d] for node %d", dir, ne, lo, hi, i)
		}
		for k := lo; k < hi; k++ {
			if to[k] < 0 || int(to[k]) >= n {
				return fmt.Errorf("eks: flat graph: %s edge target %d out of range for node %d", dir, to[k], i)
			}
			if int(to[k]) == i {
				return fmt.Errorf("eks: flat graph: self edge on node %d", i)
			}
			floor := int32(1)
			if k >= ne {
				floor = 2 // shortcut edges stand for at least two hops
			}
			if dist[k] < floor {
				return fmt.Errorf("eks: flat graph: %s edge %d->%d has distance %d, floor %d", dir, i, to[k], dist[k], floor)
			}
		}
	}
	return nil
}

// node maps a ConceptID to its dense node by binary search over the
// ascending ID column, so no view carries a per-concept map.
func (v *frozen) node(id ConceptID) (int32, bool) {
	i, ok := slices.BinarySearch(v.IDs, id)
	return int32(i), ok
}

// dir selects one adjacency direction.
func (v *frozen) dir(up bool) (off, to, dist, nativeEnd []int32) {
	if up {
		return v.UpOff, v.UpTo, v.UpDist, v.UpNativeEnd
	}
	return v.DownOff, v.DownTo, v.DownDist, v.DownNativeEnd
}

// edges reconstructs one node's []Edge from the CSR columns. Shortcut status
// is positional: entries at or past the native boundary.
func (v *frozen) edges(id ConceptID, up bool) []Edge {
	i, ok := v.node(id)
	if !ok {
		return nil
	}
	off, to, dist, nativeEnd := v.dir(up)
	lo, hi := off[i], off[i+1]
	if lo == hi {
		return nil
	}
	out := make([]Edge, 0, hi-lo)
	for k := lo; k < hi; k++ {
		e := Edge{From: id, To: v.IDs[to[k]], Dist: int(dist[k]), Shortcut: k >= nativeEnd[i]}
		if !up {
			e.From, e.To = e.To, e.From
		}
		out = append(out, e)
	}
	return out
}

// nativeNeighbors returns the sorted concept IDs across one node's native
// edge segment (Parents/Children).
func (v *frozen) nativeNeighbors(id ConceptID, up bool) []ConceptID {
	i, ok := v.node(id)
	if !ok {
		return nil
	}
	off, to, _, nativeEnd := v.dir(up)
	lo, hi := off[i], nativeEnd[i]
	if lo == hi {
		return nil
	}
	out := make([]ConceptID, 0, hi-lo)
	for _, nb := range to[lo:hi] {
		out = append(out, v.IDs[nb])
	}
	slices.Sort(out)
	return out
}

// reachNative collects the native-edge closure of id in one direction,
// excluding id, as a ConceptID set (Ancestors/Descendants).
func (v *frozen) reachNative(id ConceptID, up bool) map[ConceptID]bool {
	out := make(map[ConceptID]bool)
	i, ok := v.node(id)
	if !ok {
		return out
	}
	off, to, _, nativeEnd := v.dir(up)
	stack := []int32{i}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range to[off[cur]:nativeEnd[cur]] {
			if !out[v.IDs[nb]] {
				out[v.IDs[nb]] = true
				stack = append(stack, nb)
			}
		}
	}
	return out
}

// topologicalOrder is Kahn's algorithm over the child→parent direction:
// indegree counts native down-edges (children not yet emitted). Always
// popping the smallest ready node — dense node order is ascending ConceptID
// order — keeps the order deterministic. The ready set reuses the Dijkstra
// heap with each node as its own priority; collected in ascending order, it
// starts out a valid heap.
func (v *frozen) topologicalOrder() ([]ConceptID, error) {
	n := len(v.IDs)
	indeg := make([]int32, n)
	ready := make([]heapNode, 0, n)
	for i := range indeg {
		indeg[i] = v.DownNativeEnd[i] - v.DownOff[i]
		if indeg[i] == 0 {
			ready = append(ready, heapNode{dist: int32(i), node: int32(i)})
		}
	}
	order := make([]ConceptID, 0, n)
	for len(ready) > 0 {
		var top heapNode
		top, ready = popHeap(ready)
		cur := top.node
		order = append(order, v.IDs[cur])
		for _, parent := range v.UpTo[v.UpOff[cur]:v.UpNativeEnd[cur]] {
			indeg[parent]--
			if indeg[parent] == 0 {
				ready = append(ready, heapNode{dist: parent, node: parent})
				siftUp(ready)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("eks: subsumption graph has a cycle (%d of %d concepts ordered)", len(order), n)
	}
	return order, nil
}

// validate checks the native DAG, then root-reachability: upward
// reachability of the root is equivalent to downward reachability from it,
// so one BFS over native down edges replaces a per-concept ancestor walk.
func (v *frozen) validate(root ConceptID) error {
	if _, err := v.topologicalOrder(); err != nil {
		return err
	}
	src, ok := v.node(root)
	if !ok {
		return fmt.Errorf("eks: root %d not a concept", root)
	}
	reached := make([]bool, len(v.IDs))
	reached[src] = true
	stack := []int32{src}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range v.DownTo[v.DownOff[cur]:v.DownNativeEnd[cur]] {
			if !reached[nb] {
				reached[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	// Report the smallest unreached ID so the error is deterministic.
	if i := slices.Index(reached, false); i >= 0 {
		return fmt.Errorf("eks: concept %d (%q) does not reach root", v.IDs[i], v.Names[i])
	}
	return nil
}
