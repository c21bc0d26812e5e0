// Package match implements the pluggable instance-to-concept mapping
// methods of the paper (Sections 3, 5.1, 7.2): exact string matching
// (EXACT), approximate string matching under an edit-distance threshold
// (EDIT, τ=2 in the paper's experiments), and embedding-based matching
// (EMBEDDING) using SIF phrase vectors.
//
// The same Mapper is used in both phases: offline, to map every KB
// instance to an external concept (Algorithm 1, line 8), and online, to
// map the incoming query term (Algorithm 2, line 1).
package match

import (
	"math/bits"

	"medrelax/internal/eks"
	"medrelax/internal/embedding"
	"medrelax/internal/stringutil"
)

// Mapper maps a surface form to an external concept of a fixed graph.
//
// Concurrency contract: Map must be safe for concurrent use once the
// mapper is constructed, as long as the underlying graph is not mutated —
// the parallel offline phase (core.Ingest) hammers one shared Mapper from
// many goroutines, and the server resolves query terms concurrently. All
// mappers in this package satisfy the contract by being strictly read-only
// after construction: they hold no per-call caches or scratch state, every
// Map call allocates its own temporaries. Custom implementations must
// follow the same rule (or lock internally).
type Mapper interface {
	// Map returns the external concept the surface form corresponds to.
	// ok is false when no sufficiently similar concept exists. Map must be
	// deterministic: the same name always yields the same concept.
	Map(name string) (eks.ConceptID, bool)
	// Name identifies the method, e.g. "EXACT".
	Name() string
}

// Exact matches surface forms whose normalized form equals a concept's
// preferred name or synonym. Ambiguous names resolve to the smallest ID
// for determinism.
type Exact struct {
	graph *eks.Graph
}

// NewExact returns an exact matcher over g.
func NewExact(g *eks.Graph) *Exact { return &Exact{graph: g} }

// Name implements Mapper.
func (m *Exact) Name() string { return "EXACT" }

// Map implements Mapper.
func (m *Exact) Map(name string) (eks.ConceptID, bool) {
	ids := m.graph.LookupName(name)
	if len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}

// Edit matches under a Levenshtein threshold: it first tries an exact
// match, then scans the lexicon for the closest name within the threshold.
// The scan runs over the name keys in sorted order and only probes a key
// strictly closer than the best so far, so among equally close names the
// first key in sorted order wins, whatever its concept ID; a key that names
// several concepts answers with the smallest of their IDs.
type Edit struct {
	graph     *eks.Graph
	threshold int
	keys      []string // the graph's sorted normalized lexicon, shared with it
	sigs      []uint64 // keySignature of every key, parallel to keys
}

// DefaultEditThreshold is the τ=2 used in the paper's experiments.
const DefaultEditThreshold = 2

// NewEdit returns an edit-distance matcher over g with the given threshold
// (DefaultEditThreshold when <= 0).
func NewEdit(g *eks.Graph, threshold int) *Edit {
	return newEdit(g, threshold, keySignatures(g.FlatData().NameKeys))
}

func newEdit(g *eks.Graph, threshold int, sigs []uint64) *Edit {
	if threshold <= 0 {
		threshold = DefaultEditThreshold
	}
	return &Edit{graph: g, threshold: threshold, keys: g.FlatData().NameKeys, sigs: sigs}
}

// keySignature is a string's letter set folded into 64 bits, bit c&63 per
// byte. One edit adds at most one letter to the set and removes at most one,
// so two strings within Levenshtein distance d differ in at most 2d bits.
func keySignature(s string) uint64 {
	var sig uint64
	for i := 0; i < len(s); i++ {
		sig |= 1 << (s[i] & 63)
	}
	return sig
}

func keySignatures(keys []string) []uint64 {
	sigs := make([]uint64, len(keys))
	for i, key := range keys {
		sigs[i] = keySignature(key)
	}
	return sigs
}

// Name implements Mapper.
func (m *Edit) Name() string { return "EDIT" }

// Map implements Mapper.
func (m *Edit) Map(name string) (eks.ConceptID, bool) {
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
	var band stringutil.EditBand // one per call: Map is concurrent
	band.Reset(norm)
	qsig := keySignature(norm)
	for i, key := range m.keys {
		// Cheap length and letter-set filters before the banded DP.
		if abs(len(key)-len(norm)) > m.threshold || bits.OnesCount64(m.sigs[i]^qsig) > 2*(bestDist-1) {
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
		if d < bestDist {
			bestDist = d
			bestID = minID(ids)
			found = true
		}
	}
	return bestID, found
}

// Embedding matches by cosine similarity of SIF phrase vectors: exact match
// first, then nearest neighbour over the embedded lexicon, accepted when
// the cosine reaches the threshold.
type Embedding struct {
	graph     *eks.Graph
	encoder   *embedding.SIFEncoder
	index     *embedding.Index
	byKey     map[string]eks.ConceptID
	threshold float64
}

// DefaultEmbeddingThreshold is the acceptance cosine for embedding matches.
// High enough that generic boilerplate phrasings ("presentation consistent
// with ...") do not coast to a match on a single shared token.
const DefaultEmbeddingThreshold = 0.76

// NewEmbedding returns an embedding matcher over g. enc encodes tokenized
// phrases; threshold <= 0 selects DefaultEmbeddingThreshold.
func NewEmbedding(g *eks.Graph, enc *embedding.SIFEncoder, threshold float64) *Embedding {
	if threshold <= 0 {
		threshold = DefaultEmbeddingThreshold
	}
	m := &Embedding{
		graph:     g,
		encoder:   enc,
		byKey:     make(map[string]eks.ConceptID),
		threshold: threshold,
	}
	keys := g.NameKeys()
	// Probe the encoder's dimension with the first non-zero encoding.
	dim := 0
	encoded := make(map[string]embedding.Vector, len(keys))
	for _, key := range keys {
		v := enc.Encode(stringutil.Tokenize(key))
		encoded[key] = v
		if dim == 0 && len(v) > 0 {
			dim = len(v)
		}
	}
	m.index = embedding.NewIndex(dim)
	for _, key := range keys {
		ids := g.IDsForNameKey(key)
		if len(ids) == 0 {
			continue
		}
		m.byKey[key] = minID(ids)
		m.index.Add(key, encoded[key])
	}
	return m
}

// Name implements Mapper.
func (m *Embedding) Name() string { return "EMBEDDING" }

// Map implements Mapper.
func (m *Embedding) Map(name string) (eks.ConceptID, bool) {
	if id, ok := (&Exact{graph: m.graph}).Map(name); ok {
		return id, ok
	}
	q := m.encoder.Encode(stringutil.Tokenize(name))
	hit, ok := m.index.Best(q)
	if !ok || hit.Cosine < m.threshold {
		return 0, false
	}
	return m.byKey[hit.Key], true
}

// Combined tries a sequence of mappers in order and returns the first
// match. The paper's online phase resolves a query term whose name "either
// matches with the exact query term, or is very similar in terms of either
// edit distance or word embeddings" — i.e. exact, then EDIT, then
// EMBEDDING, which is the composition NewCombined(exact, edit, embedding).
type Combined struct {
	mappers []Mapper
}

// NewCombined chains mappers; at least one is required.
func NewCombined(mappers ...Mapper) *Combined {
	return &Combined{mappers: mappers}
}

// Name implements Mapper.
func (m *Combined) Name() string { return "COMBINED" }

// Map implements Mapper.
func (m *Combined) Map(name string) (eks.ConceptID, bool) {
	for _, mp := range m.mappers {
		if id, ok := mp.Map(name); ok {
			return id, ok
		}
	}
	return 0, false
}

func minID(ids []eks.ConceptID) eks.ConceptID {
	best := ids[0]
	for _, id := range ids[1:] {
		if id < best {
			best = id
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
