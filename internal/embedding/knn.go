package embedding

import "sort"

// Index is a brute-force nearest-neighbour index over vectors, used to match
// surface forms against a lexicon of concept-name embeddings. It holds the
// vectors alone: a hit is the position its vector was added at, which the
// caller maps back to its own lexicon. For the lexicon sizes in scope
// (10³–10⁵ names) exact scan is both simple and fast enough; the interface
// would admit an ANN structure if needed.
type Index struct {
	vectors []Vector // nil where a zero vector was added
	dim     int
}

// NewIndex returns an empty index for vectors of the given dimension.
func NewIndex(dim int) *Index { return &Index{dim: dim} }

// Add appends a vector at the next position. A zero vector, or one of
// another dimension, holds its position but is never a hit: it carries no
// information and would match nothing under cosine anyway.
func (ix *Index) Add(v Vector) {
	if len(v) != ix.dim || v.IsZero() {
		v = nil
	}
	ix.vectors = append(ix.vectors, v)
}

// Hit is one nearest-neighbour result.
type Hit struct {
	Pos    int // the position the vector was added at
	Cosine float64
}

// Nearest returns the k indexed vectors most cosine-similar to q, best
// first. Ties break by position for determinism. A zero query returns nil.
func (ix *Index) Nearest(q Vector, k int) []Hit {
	if k <= 0 || q.IsZero() {
		return nil
	}
	hits := make([]Hit, 0, len(ix.vectors))
	for i, v := range ix.vectors {
		if v != nil {
			hits = append(hits, Hit{Pos: i, Cosine: Cosine(q, v)})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Cosine != hits[j].Cosine {
			return hits[i].Cosine > hits[j].Cosine
		}
		return hits[i].Pos < hits[j].Pos
	})
	if k > len(hits) {
		k = len(hits)
	}
	return hits[:k]
}

// Best returns the single nearest entry and its cosine, or ok=false for a
// zero query or empty index.
func (ix *Index) Best(q Vector) (Hit, bool) {
	hs := ix.Nearest(q, 1)
	if len(hs) == 0 {
		return Hit{}, false
	}
	return hs[0], true
}
