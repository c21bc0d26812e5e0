package core

import (
	"fmt"
	"runtime"
	"slices"
	"unsafe"

	"medrelax/internal/eks"
	"medrelax/internal/idindex"
)

// CandidateIndex is the stored-geometry side of the offline acceleration pair
// (the other being Materialized): for every eligible query concept, the
// geometry a walk to a fixed radius derives, kept in the columns the kernel
// scores. The online phase reads a concept's geometry as a view of them
// (indexedGeometry) instead of walking the flagged frontier and deriving each
// candidate's meet; scores come out bit-identical because it is the walk's own
// geometry, hit for hit.
type CandidateIndex struct {
	d      FlatCandidateIndexData
	hits   []geoHit    // d.Hits
	shapes []pathShape // d.Shapes
	// The hits name flagged slots and graph nodes: positions in these.
	flagged, nodes []eks.ConceptID
}

// FlatCandidateIndexData is the column layout of a CandidateIndex, which is
// also the layout of the candidate-index sections of a flat (v4) bundle: the
// indexed concepts in ascending order, and per concept what a geometry holds,
// stored free of any RelaxOptions — hops 0 to Radius, a flagged concept's own
// hit at hop 0, instance counts from hop 0 — in shared pools. Slices handed to
// OpenFlatCandidateIndex may alias a memory mapping; they are never mutated.
type FlatCandidateIndexData struct {
	Radius int
	// Skipped counts concepts left out because their neighborhood exceeded
	// MaxPostings; queries anchored there fall back to the live traversal.
	Skipped  int
	Concepts []eks.ConceptID // ascending, indexed concepts
	Off      []int32         // len(Concepts)+1, CSR into the hits
	Hits     []int32         // three words a hit (geoHit): flagged slot, LCS, shape
	Levels   []int32         // Radius+1 a concept: its hits within h hops
	Counts   []int32         // Radius+1 a concept: distinct instances within h hops
	ShapeOff []int32         // len(Concepts)+1, CSR into the shapes
	Shapes   []int32         // two words a shape (pathShape): gen, spec
	SetOff   []int32         // len(Concepts)+1, CSR into the tied sets
	TiedOff  []int32         // set i is Tied[TiedOff[i]:TiedOff[i+1]]
	Tied     []int32         // graph nodes, ascending within a set
}

// The hit and shape columns are viewed in place as these structs, so their
// sizes are part of the bundle format.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(geoHit{})-12]
	_ = [1]struct{}{}[unsafe.Sizeof(pathShape{})-8]
)

// wordsAs views a column of 32-bit words as records of whole words, and back.
func wordsAs[To, From any](xs []From) []To {
	var from From
	var to To
	return unsafe.Slice((*To)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*int(unsafe.Sizeof(from))/int(unsafe.Sizeof(to)))
}

// CandidateIndexOptions tunes the offline build.
type CandidateIndexOptions struct {
	// Enabled turns the build on inside Ingest.
	Enabled bool
	// Radius is the hop radius geometries are stored to. It must cover the
	// serving radius for the index to be used at all, and each extra hop of
	// headroom lets one more dynamic-radius growth step stay on the index
	// before falling back to live traversal. Default 4.
	Radius int
	// MaxPostings skips concepts whose in-radius flagged neighborhood
	// exceeds this bound (they fall back to the live traversal), keeping
	// hub concepts from dominating build time and bundle size. Default
	// 4096; negative means unlimited.
	MaxPostings int
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

// BuildCandidateIndex walks from every concept of the ingestion's graph and
// keeps the geometries. It runs once, offline, after the graph is frozen; sim
// must evaluate over the same frozen graph the online phase will use.
func BuildCandidateIndex(ing *Ingestion, sim *Similarity, opts CandidateIndexOptions) *CandidateIndex {
	opts = opts.withDefaults()
	ids := ing.Graph.ConceptIDs()
	built := make([]*geometry, len(ids))

	// Worker w takes every workers-th concept: neighbours cost alike. The index
	// is the same for every GOMAXPROCS: workers own disjoint concepts and the
	// pools are assembled in ascending concept order after the barrier.
	workers := runtime.GOMAXPROCS(0)
	parallelChunks(workers, workers, func(w, _ int) {
		for i := w; i < len(ids); i += workers {
			built[i] = storedGeometry(ing, sim, ids[i], opts)
		}
	})

	d := FlatCandidateIndexData{Radius: opts.Radius, Off: []int32{0}, ShapeOff: []int32{0}, SetOff: []int32{0}, TiedOff: []int32{0}}
	var hits []geoHit
	var shapes []pathShape
	for i, q := range ids { // ascending
		g := built[i]
		if g == nil {
			d.Skipped++
			continue
		}
		d.Concepts = append(d.Concepts, q)
		hits = append(hits, g.hits...)
		d.Off = append(d.Off, int32(len(hits)))
		d.Levels = append(d.Levels, g.levelEnd...)
		d.Counts = append(d.Counts, g.counts...)
		shapes = append(shapes, g.shapes...)
		d.ShapeOff = append(d.ShapeOff, int32(len(shapes)))
		base := int32(len(d.Tied))
		for _, end := range g.tiedOff[1:] {
			d.TiedOff = append(d.TiedOff, base+end)
		}
		d.Tied = append(d.Tied, g.tied...)
		d.SetOff = append(d.SetOff, int32(len(d.TiedOff)-1))
	}
	d.Hits, d.Shapes = wordsAs[int32](hits), wordsAs[int32](shapes)
	return &CandidateIndex{d: d, hits: hits, shapes: shapes, flagged: ing.maps.Flagged, nodes: ing.Graph.FlatData().IDs}
}

// storedGeometry is the geometry of a walk from q to the index radius with
// the flagged q's own hit at hop 0 and counts from hop 0 — the form every
// RelaxOptions the radius covers can be cut from — or nil for a concept whose
// candidates exceed MaxPostings.
func storedGeometry(ing *Ingestion, sim *Similarity, q eks.ConceptID, opts CandidateIndexOptions) *geometry {
	f, ok := ing.flaggedFrontier(q)
	if !ok {
		return nil
	}
	defer f.Close()
	b := newGeometryBuilder(ing, sim.meetsFrom(q), 0)
	instances := 0
	if slot, flagged := ing.flaggedSlot(q); flagged {
		b.addSelf(slot)
		instances = ing.instanceCount(slot)
	}
	own := len(b.g.hits)
	for hops := 0; ; hops++ {
		b.endLevel()
		b.g.counts = append(b.g.counts, int32(instances))
		if hops == opts.Radius {
			return b.g
		}
		level := f.Advance()
		if opts.MaxPostings > 0 && len(b.g.hits)-own+len(level) > opts.MaxPostings {
			return nil
		}
		for _, slot := range level {
			b.add(slot)
			instances += ing.instanceCount(slot)
		}
	}
}

// Radius reports the hop radius the index was built with.
func (x *CandidateIndex) Radius() int { return x.d.Radius }

// Concepts reports how many concepts have a stored geometry.
func (x *CandidateIndex) Concepts() int { return len(x.d.Concepts) }

// Postings reports the stored candidates across all concepts: the hits, the
// concepts' own at hop 0 aside.
func (x *CandidateIndex) Postings() int {
	n := len(x.hits)
	for i := range x.d.Concepts {
		n -= int(x.d.Levels[i*(x.d.Radius+1)])
	}
	return n
}

// Skipped reports how many concepts were left unindexed by MaxPostings.
func (x *CandidateIndex) Skipped() int { return x.d.Skipped }

// FlatData returns the index's columns, the form a flat bundle stores. The
// slices alias the index and must not be modified; over a mapped bundle they
// are valid only while the Ingestion that was loaded is reachable — they point
// into its mapping and pin nothing (see Ingestion.Backing).
func (x *CandidateIndex) FlatData() FlatCandidateIndexData { return x.d }

// OpenFlatCandidateIndex adopts candidate-index columns as a *CandidateIndex
// over the flagged set its hits' slots, and the node ids its LCS nodes, are
// positions in, enforcing what the online phase relies on: well-formed CSRs,
// ascending concepts, level ends and counts that grow to the concept's span,
// hop 0 holding a flagged concept's own hit and nothing else, every slot,
// node, shape and tied-set index in range, tied sets of two or more ascending
// nodes.
func OpenFlatCandidateIndex(d FlatCandidateIndexData, flagged, nodes []eks.ConceptID) (*CandidateIndex, error) {
	n, stride := len(d.Concepts), d.Radius+1
	switch {
	case d.Radius < 1:
		return nil, fmt.Errorf("core: candidate index radius %d < 1", d.Radius)
	case d.Skipped < 0:
		return nil, fmt.Errorf("core: candidate index skipped count %d < 0", d.Skipped)
	case len(d.Hits)%3 != 0 || len(d.Shapes)%2 != 0:
		return nil, fmt.Errorf("core: candidate index has %d hit words, %d shape words: not whole records", len(d.Hits), len(d.Shapes))
	case len(d.Levels) != n*stride || len(d.Counts) != n*stride:
		return nil, fmt.Errorf("core: candidate index has %d level ends, %d counts for %d concepts of radius %d", len(d.Levels), len(d.Counts), n, d.Radius)
	}
	x := &CandidateIndex{d: d, hits: wordsAs[geoHit](d.Hits), shapes: wordsAs[pathShape](d.Shapes), flagged: flagged, nodes: nodes}
	if err := checkCSR32("candidate index", n, d.Off, len(x.hits)); err != nil {
		return nil, err
	}
	if err := checkCSR32("candidate index shape", n, d.ShapeOff, len(x.shapes)); err != nil {
		return nil, err
	}
	if err := checkCSR32("candidate index tied-set", n, d.SetOff, len(d.TiedOff)-1); err != nil {
		return nil, err
	}
	if err := checkCSR32("candidate index tied-node", len(d.TiedOff)-1, d.TiedOff, len(d.Tied)); err != nil {
		return nil, err
	}
	for i := 1; i < len(d.TiedOff); i++ {
		set := d.Tied[d.TiedOff[i-1]:d.TiedOff[i]]
		ok := len(set) >= 2 && set[0] >= 0 && int(set[len(set)-1]) < len(nodes)
		for j := 1; ok && j < len(set); j++ {
			ok = set[j] > set[j-1]
		}
		if !ok {
			return nil, fmt.Errorf("core: candidate index tied set %d is not two or more ascending nodes of %d: %v", i-1, len(nodes), set)
		}
	}
	for _, w := range d.Shapes {
		if w < 0 {
			return nil, fmt.Errorf("core: candidate index holds a negative path shape")
		}
	}
	slotOf := idindex.New(flagged)
	for i, q := range d.Concepts {
		if i > 0 && q <= d.Concepts[i-1] {
			return nil, fmt.Errorf("core: candidate index concepts not strictly ascending at %d", i)
		}
		hits, levels, counts := x.hits[d.Off[i]:d.Off[i+1]], d.Levels[i*stride:(i+1)*stride], d.Counts[i*stride:(i+1)*stride]
		if !slices.IsSorted(levels) || int(levels[d.Radius]) != len(hits) || !slices.IsSorted(counts) {
			return nil, fmt.Errorf("core: concept %d: level ends %v over %d hits or counts %v do not grow to the span", q, levels, len(hits), counts)
		}
		if own, isFlagged := slotOf.Find(q); isFlagged {
			if levels[0] != 1 || hits[0].slot != int32(own) || hits[0].lcs != geoNoMeet || counts[0] < 0 {
				return nil, fmt.Errorf("core: concept %d is flagged and hop 0 is not its own hit alone", q)
			}
		} else if levels[0] != 0 || counts[0] != 0 {
			return nil, fmt.Errorf("core: concept %d is not flagged and hop 0 holds %d hits, %d instances", q, levels[0], counts[0])
		}
		shapes, sets := int(d.ShapeOff[i+1]-d.ShapeOff[i]), int(d.SetOff[i+1]-d.SetOff[i])
		for _, h := range hits[levels[0]:] {
			switch {
			case h.slot < 0 || int(h.slot) >= len(flagged):
				return nil, fmt.Errorf("core: concept %d: hit slot %d outside the flagged set of %d", q, h.slot, len(flagged))
			case h.lcs == geoNoMeet:
			case int(h.lcs) >= len(nodes) || int(^h.lcs) >= sets:
				return nil, fmt.Errorf("core: concept %d: hit LCS %d outside %d nodes and %d tied sets", q, h.lcs, len(nodes), sets)
			case int64(h.shape) >= int64(shapes):
				return nil, fmt.Errorf("core: concept %d: hit shape %d of %d", q, h.shape, shapes)
			}
		}
	}
	return x, nil
}
