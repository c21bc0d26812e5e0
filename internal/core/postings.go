package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"medrelax/internal/eks"
)

// CandidateIndex is the posting-list side of the offline acceleration pair
// (the other being Materialized): for every eligible query concept it keeps
// the flagged candidates within a fixed hop radius together with the
// canonical-meet geometry Equation 5 needs — the generalization and
// specialization hop counts and the tied least-common-subsumer set. The
// online phase then scores a bounded, pre-gathered posting list instead of
// walking the flagged frontier and re-deriving each candidate's subsumer
// meet per query. Scores come out bit-identical to the live
// traversal because the stored geometry feeds the exact same arithmetic
// (canonicalPathWeight × simICFromLCS, LCS set iterated in the same
// ascending order) and the final ranking comparator is a total order, so
// gathering order cannot leak into the output.
//
// Postings are stored in flat shared pools (one postings array, one LCS id
// array) with per-concept spans, sorted by (hops ascending, build-time
// partial similarity descending, id ascending); the hop-major order lets a
// radius-r candidate set be cut out of the list with one binary search, so
// dynamic-radius growth never re-gathers.
type CandidateIndex struct {
	d FlatCandidateIndexData
}

// FlatCandidateIndexData is the column layout of a CandidateIndex, which is
// also the layout of the candidate-index sections of a flat (v4) bundle: the
// indexed concepts in ascending order with CSR spans into the posting pool,
// and the LCS pool the postings' spans point into, packed in posting order.
// Slices handed to OpenFlatCandidateIndex may alias a memory mapping; they
// are never mutated.
type FlatCandidateIndexData struct {
	Radius int
	// Skipped counts concepts left out because their neighborhood exceeded
	// MaxPostings; queries anchored there fall back to the live traversal.
	Skipped  int
	Concepts []eks.ConceptID // ascending, indexed concepts
	Off      []int32         // len(Concepts)+1, CSR into Posts
	Posts    []Posting
	LCS      []eks.ConceptID
}

// CandidateIndexOptions tunes the offline build.
type CandidateIndexOptions struct {
	// Enabled turns the build on inside Ingest.
	Enabled bool
	// Radius is the hop radius postings are gathered in. It must cover the
	// serving radius for the index to be used at all, and each extra hop of
	// headroom lets one more dynamic-radius growth step stay on the index
	// before falling back to live traversal. Default 4.
	Radius int
	// MaxPostings skips concepts whose in-radius flagged neighborhood
	// exceeds this bound (they fall back to the live traversal), keeping
	// hub concepts from dominating build time and bundle size. Default
	// 4096; negative means unlimited.
	MaxPostings int
	// Workers is the build parallelism; 0 follows GOMAXPROCS. The index is
	// deterministic for every value: workers own disjoint concepts and the
	// pools are assembled in ascending concept order after the barrier.
	Workers int
}

func (o CandidateIndexOptions) withDefaults() CandidateIndexOptions {
	if o.Radius <= 0 {
		o.Radius = 4
	}
	if o.MaxPostings == 0 {
		o.MaxPostings = 4096
	}
	return o
}

// builtList is one worker's output for a concept before pool assembly; its
// postings' LCS spans are relative to its own lcs.
type builtList struct {
	indexed bool
	posts   []Posting
	lcs     []eks.ConceptID
}

// BuildCandidateIndex gathers and precomputes posting lists for every
// concept of the ingestion's graph. It runs once, offline, after the graph
// is frozen; sim must evaluate over the same frozen graph and frequency
// table the online phase will use.
func BuildCandidateIndex(ing *Ingestion, sim *Similarity, opts CandidateIndexOptions) *CandidateIndex {
	opts = opts.withDefaults()
	ids := ing.Graph.ConceptIDs()
	built := make([]builtList, len(ids))

	workers := resolveParallelism(opts.Workers)
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				built[i] = buildPostings(ing, sim, ids[i], opts)
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()

	d := FlatCandidateIndexData{Radius: opts.Radius, Off: []int32{0}}
	for i, q := range ids { // ascending
		if !built[i].indexed {
			d.Skipped++
			continue
		}
		d.appendList(q, built[i].posts, built[i].lcs)
	}
	return &CandidateIndex{d: d}
}

// appendList adds one concept's posting list to the pools, rebasing the
// postings' LCS spans from lcs onto the shared pool; callers append in
// ascending concept order.
func (d *FlatCandidateIndexData) appendList(q eks.ConceptID, posts []Posting, lcs []eks.ConceptID) {
	base := int32(len(d.LCS))
	for _, p := range posts {
		if p.LCSHi > p.LCSLo {
			p.LCSLo += base
			p.LCSHi += base
		}
		d.Posts = append(d.Posts, p)
	}
	d.LCS = append(d.LCS, lcs...)
	d.Concepts = append(d.Concepts, q)
	d.Off = append(d.Off, int32(len(d.Posts)))
}

// buildPostings computes one concept's posting list: the flagged frontier
// walked to the index radius, each hit with its canonical-meet geometry —
// derived as the live kernel derives it — ordered by (hops, partial
// similarity under the build weights, id).
func buildPostings(ing *Ingestion, sim *Similarity, q eks.ConceptID, opts CandidateIndexOptions) builtList {
	f, ok := ing.flaggedFrontier(q)
	if !ok {
		return builtList{}
	}
	defer f.Close()
	b := newGeometryBuilder(ing, sim.meetsFrom(q), 0)
	b.endLevel() // hop 0: a posting list never holds the query concept itself
	for hops := 1; hops <= opts.Radius; hops++ {
		level := f.Advance()
		if opts.MaxPostings > 0 && len(b.g.hits)+len(level) > opts.MaxPostings {
			return builtList{}
		}
		for _, slot := range level {
			b.add(slot)
		}
		b.endLevel()
	}
	g := b.g
	out := builtList{indexed: true, posts: make([]Posting, 0, len(g.hits))}
	partials := make([]float64, 0, len(g.hits))
	var one [1]int32
	for hops := 1; hops <= opts.Radius; hops++ {
		for _, h := range g.hits[g.levelEnd[hops-1]:g.levelEnd[hops]] {
			p := Posting{Concept: ing.maps.Flagged[h.slot], Hops: int32(hops)}
			partial := 0.0
			if lcs := g.lcsOf(h, &one); len(lcs) > 0 {
				shape := g.shapes[h.shape]
				p.Gen, p.Spec = shape.gen, shape.spec
				p.LCSLo = int32(len(out.lcs))
				for _, node := range lcs {
					out.lcs = append(out.lcs, b.nodes[node])
				}
				p.LCSHi = int32(len(out.lcs))
				partial = sim.pathWeight(int(shape.gen), int(shape.spec))
			}
			out.posts = append(out.posts, p)
			partials = append(partials, partial)
		}
	}
	order := make([]int, len(out.posts))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := &out.posts[a], &out.posts[b]
		return cmp.Or(cmp.Compare(pa.Hops, pb.Hops), rankOrder(partials[a], partials[b], pa.Concept, pb.Concept))
	})
	// Pack the LCS pool in posting order — the order a bundle stores it in —
	// with an empty set as the span [0,0).
	sorted := make([]Posting, len(out.posts))
	lcs := make([]eks.ConceptID, 0, len(out.lcs))
	for i, j := range order {
		p := out.posts[j]
		set := out.lcs[p.LCSLo:p.LCSHi]
		p.LCSLo, p.LCSHi = 0, 0
		if len(set) > 0 {
			p.LCSLo = int32(len(lcs))
			lcs = append(lcs, set...)
			p.LCSHi = int32(len(lcs))
		}
		sorted[i] = p
	}
	out.posts, out.lcs = sorted, lcs
	return out
}

// lookup returns q's posting list; ok is false when q was not indexed
// (skipped hub or unknown concept) and the caller must traverse live.
func (x *CandidateIndex) lookup(q eks.ConceptID) ([]Posting, bool) {
	i, ok := slices.BinarySearch(x.d.Concepts, q)
	if !ok {
		return nil, false
	}
	return x.d.Posts[x.d.Off[i]:x.d.Off[i+1]], true
}

// hopCut returns the end of the prefix of posts with hops <= radius; posts
// are hop-major sorted so the radius-r candidate set is posts[:cut].
func hopCut(posts []Posting, radius int) int {
	return sort.Search(len(posts), func(i int) bool { return int(posts[i].Hops) > radius })
}

// indexedGeometry reads q's posting list into the geometry a walk to the
// index's horizon would derive — the same hits level by level, each level in
// posting order rather than walk order, the same per-radius instance counts
// — with every posting's slot and LCS nodes resolved here, once per concept.
// It returns nil, and the caller walks, with no index attached, for a concept
// the index does not hold, a horizon that does not answer target, or a posting
// that names a concept this ingestion does not flag or its graph does not
// have.
func (r *Relaxer) indexedGeometry(q eks.ConceptID, target int) *geometry {
	idx := r.cidx
	if idx == nil || idx.d.Radius < r.opts.Radius {
		return nil
	}
	posts, found := idx.lookup(q)
	if !found {
		return nil
	}
	horizon := min(idx.d.Radius, r.maxRadius())
	posts = posts[:hopCut(posts, horizon)]
	b := newGeometryBuilder(r.ing, queryMeets{}, len(posts)+1)
	b.g.indexed, b.g.final = true, horizon == r.maxRadius()
	instances := 0
	if slot, flagged := r.ing.flaggedSlot(q); flagged && r.opts.IncludeSelf {
		b.addSelf(slot)
		instances = r.ing.instanceCount(slot)
	}
	for hops := 0; hops <= horizon; hops++ {
		for ; len(posts) > 0 && int(posts[0].Hops) == hops; posts = posts[1:] {
			p := &posts[0]
			slot, flagged := r.ing.flaggedSlot(p.Concept)
			if !flagged || !b.addMeet(slot, idx.d.LCS[p.LCSLo:p.LCSHi], p.Gen, p.Spec) {
				return nil
			}
			instances += r.ing.instanceCount(slot)
		}
		b.endLevel()
		if hops >= r.opts.Radius {
			b.g.counts = append(b.g.counts, int32(instances))
		}
	}
	if !b.g.answers(target) {
		return nil
	}
	return b.g
}

// Radius reports the hop radius the index was built with.
func (x *CandidateIndex) Radius() int { return x.d.Radius }

// Concepts reports how many concepts have a posting list.
func (x *CandidateIndex) Concepts() int { return len(x.d.Concepts) }

// Postings reports the total posting count across all lists.
func (x *CandidateIndex) Postings() int { return len(x.d.Posts) }

// Skipped reports how many concepts were left unindexed by MaxPostings.
func (x *CandidateIndex) Skipped() int { return x.d.Skipped }

// FlatData returns the index's columns, the form a flat bundle stores. The
// slices alias the index and must not be modified.
func (x *CandidateIndex) FlatData() FlatCandidateIndexData { return x.d }

// OpenFlatCandidateIndex adopts candidate-index columns as a
// *CandidateIndex, enforcing the structural invariants the online phase
// relies on: ascending concepts, hop-major posting order within the radius,
// non-negative geometry, and strictly ascending LCS spans inside the pool.
func OpenFlatCandidateIndex(d FlatCandidateIndexData) (*CandidateIndex, error) {
	if d.Radius < 1 {
		return nil, fmt.Errorf("core: candidate index radius %d < 1", d.Radius)
	}
	if d.Skipped < 0 {
		return nil, fmt.Errorf("core: candidate index skipped count %d < 0", d.Skipped)
	}
	if err := checkCSR32("candidate index", len(d.Concepts), d.Off, len(d.Posts)); err != nil {
		return nil, err
	}
	for i := 1; i < len(d.Concepts); i++ {
		if d.Concepts[i] <= d.Concepts[i-1] {
			return nil, fmt.Errorf("core: candidate index concepts not strictly ascending at %d", i)
		}
	}
	for ci, q := range d.Concepts {
		posts := d.Posts[d.Off[ci]:d.Off[ci+1]]
		prevHops := int32(0)
		for i := range posts {
			p := &posts[i]
			if p.Hops < 1 || int(p.Hops) > d.Radius {
				return nil, fmt.Errorf("core: posting %d->%d hops %d outside [1,%d]", q, p.Concept, p.Hops, d.Radius)
			}
			if p.Hops < prevHops {
				return nil, fmt.Errorf("core: concept %d posting list not hop-sorted", q)
			}
			prevHops = p.Hops
			if p.Gen < 0 || p.Spec < 0 {
				return nil, fmt.Errorf("core: posting %d->%d has negative meet geometry", q, p.Concept)
			}
			if p.LCSLo < 0 || p.LCSLo > p.LCSHi || int(p.LCSHi) > len(d.LCS) {
				return nil, fmt.Errorf("core: posting %d->%d has LCS span [%d,%d) outside pool of %d", q, p.Concept, p.LCSLo, p.LCSHi, len(d.LCS))
			}
			for j := p.LCSLo + 1; j < p.LCSHi; j++ {
				if d.LCS[j] <= d.LCS[j-1] {
					return nil, fmt.Errorf("core: posting %d->%d LCS set not strictly ascending", q, p.Concept)
				}
			}
		}
	}
	return &CandidateIndex{d: d}, nil
}
