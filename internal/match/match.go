// Package match implements the pluggable instance-to-concept mapping
// methods of the paper (Sections 3, 5.1, 7.2): exact string matching
// (EXACT), approximate string matching under an edit-distance threshold
// (EDIT, τ=2 in the paper's experiments), and embedding-based matching
// (EMBEDDING) using SIF phrase vectors.
//
// Offline, the configured Mapper maps every KB instance to an external
// concept (Algorithm 1, line 8); online, every snapshot maps the incoming
// query term (Algorithm 2, line 1) with Edit at τ=2.
package match

import (
	"math/bits"
	"sync"

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
// mappers in this package satisfy the contract by being read-only after
// construction — Edit's key signatures, derived under a sync.Once, aside:
// they hold no per-call caches or scratch state, every Map call allocates
// its own temporaries. Custom implementations must
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
	return m.graph.MinIDForNameKey(stringutil.Normalize(name))
}

// Edit matches under a Levenshtein threshold: it first tries an exact
// match, then scans the lexicon once for each distance from 1 up to the
// threshold and answers the first key within it. The keys are in sorted order
// and a pass only begins when no key lay within the distance before it, so
// the answer is the first key in sorted order at the least distance, whatever
// its concept ID; a key that names several concepts answers with the smallest
// of their IDs. At τ=2 it is every snapshot's query-term mapper.
//
// The scan reads the key column through the graph, so a matcher made before
// customization adds its shortcut edges holds no stale view of it. Its key
// signatures depend only on the key strings, which customization does not
// change: they are derived once, by the first term that misses the exact key.
type Edit struct {
	graph     *eks.Graph
	threshold int
	once      sync.Once
	sigs      []uint64 // keySignature of every name key, in key order, once derived
}

// DefaultEditThreshold is the τ=2 used in the paper's experiments.
const DefaultEditThreshold = 2

// NewEdit returns an edit-distance matcher over g with the given threshold
// (DefaultEditThreshold when <= 0).
func NewEdit(g *eks.Graph, threshold int) *Edit {
	if threshold <= 0 {
		threshold = DefaultEditThreshold
	}
	return &Edit{graph: g, threshold: threshold}
}

// keySigs returns every name key's signature, deriving them on first use.
func (m *Edit) keySigs() []uint64 {
	m.once.Do(func() {
		keys := m.graph.FlatData().NameKeys
		m.sigs = make([]uint64, keys.Len())
		for i := range m.sigs {
			m.sigs[i] = keySignature(keys.At(i))
		}
	})
	return m.sigs
}

// keySignature is a string's letter set folded into 64 bits, bit r&63 per
// rune. One edit adds at most one rune to the set and removes at most one, so
// two strings within Levenshtein distance d — counted in runes, as EditBand
// counts it — differ in at most 2d bits.
func keySignature(s string) uint64 {
	var sig uint64
	for _, r := range s {
		sig |= 1 << (r & 63)
	}
	return sig
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
	var band stringutil.EditBand // one per call: Map is concurrent
	band.Reset(norm)
	qsig := keySignature(norm)
	keys, sigs := m.graph.FlatData().NameKeys, m.keySigs()
	for d := 1; d <= m.threshold; d++ {
		for i, sig := range sigs {
			// Cheap letter-set and length filters before the banded DP: the
			// signatures are a sequential column, a key's length a read of
			// the string table, so the signature goes first.
			if bits.OnesCount64(sig^qsig) > 2*d {
				continue
			}
			key := keys.At(i)
			if abs(len(key)-len(norm)) > m.threshold || !band.Within(key, d) {
				continue
			}
			if id, ok := m.graph.MinIDForNameKey(key); ok {
				return id, true
			}
		}
	}
	return 0, false
}

// Embedding matches by cosine similarity of SIF phrase vectors: exact match
// first, then nearest neighbour over the embedded lexicon, accepted when
// the cosine reaches the threshold. The index holds a vector per name key at
// the key's position in the graph's sorted column, so a tie goes to the first
// key in sorted order.
type Embedding struct {
	graph     *eks.Graph
	encoder   *embedding.SIFEncoder
	index     *embedding.Index
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
	m := &Embedding{graph: g, encoder: enc, threshold: threshold}
	keys := g.FlatData().NameKeys
	// Probe the encoder's dimension with the first non-zero encoding.
	dim := 0
	encoded := make([]embedding.Vector, keys.Len())
	for i := range encoded {
		encoded[i] = enc.Encode(stringutil.Tokenize(keys.At(i)))
		if dim == 0 && len(encoded[i]) > 0 {
			dim = len(encoded[i])
		}
	}
	m.index = embedding.NewIndex(dim)
	for _, v := range encoded {
		m.index.Add(v)
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
	return m.graph.MinIDForNameKey(m.graph.FlatData().NameKeys.At(hit.Pos))
}

// Combined tries a sequence of mappers in order and returns the first
// match. The paper's online phase resolves a query term whose name "either
// matches with the exact query term, or is very similar in terms of either
// edit distance or word embeddings". EDIT and EMBEDDING each try the exact
// key first, so an exact stage placed before either only repeats the hash
// lookup on every term it misses: the chain is NewCombined(edit, embedding).
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

// NewLookupService is the term resolver bench/traced.go chains after EXACT
// and EDIT. EDIT is the one served resolver, so this stage adds nothing.
func NewLookupService(g *eks.Graph) *Exact { return NewExact(g) } // bench contract

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
