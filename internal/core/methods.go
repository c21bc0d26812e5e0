package core

import (
	"slices"

	"medrelax/internal/eks"
	"medrelax/internal/embedding"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
	"medrelax/internal/stringutil"
)

// Method is a query relaxation method under evaluation: given a query term
// and its context, return up to k ranked external concepts judged
// semantically related. The experimental harness (Table 2) runs every
// Method over the same workload.
type Method interface {
	Name() string
	RelaxConcepts(term string, ctx *ontology.Context, k int) []eks.ConceptID
}

// relaxerMethod adapts a Relaxer into a Method.
type relaxerMethod struct {
	name    string
	relaxer *Relaxer
}

// Name implements Method.
func (m *relaxerMethod) Name() string { return m.name }

// RelaxConcepts implements Method.
func (m *relaxerMethod) RelaxConcepts(term string, ctx *ontology.Context, k int) []eks.ConceptID {
	results, err := m.relaxer.RelaxTerm(term, ctx, 0)
	if err != nil {
		return nil
	}
	if k > len(results) {
		k = len(results)
	}
	out := make([]eks.ConceptID, 0, k)
	for _, r := range results[:k] {
		out = append(out, r.Concept)
	}
	return out
}

// NewQR builds the paper's full method: corpus frequencies with contextual
// information plus the directional path weight.
func NewQR(ing *Ingestion, mapper match.Mapper, opts RelaxOptions) Method {
	sim := NewSimilarity(ing.Graph, ing.Frequencies, ing.Ontology)
	return &relaxerMethod{name: "QR", relaxer: NewRelaxer(ing, sim, mapper, opts)}
}

// NewQRNoContext builds QR-no-context: corpus frequencies aggregated over
// all contexts, path weight kept.
func NewQRNoContext(ing *Ingestion, mapper match.Mapper, opts RelaxOptions) Method {
	sim := NewSimilarity(ing.Graph, WithoutContext(ing.Frequencies), ing.Ontology)
	return &relaxerMethod{name: "QR-no-context", relaxer: NewRelaxer(ing, sim, mapper, opts)}
}

// NewQRNoCorpus builds QR-no-corpus: intrinsic (structure-only) information
// content with the path weight; contextual frequencies are unavailable
// without a corpus.
func NewQRNoCorpus(ing *Ingestion, mapper match.Mapper, opts RelaxOptions) Method {
	sim := NewSimilarity(ing.Graph, NewIntrinsicIC(ing.Graph), ing.Ontology)
	return &relaxerMethod{name: "QR-no-corpus", relaxer: NewRelaxer(ing, sim, mapper, opts)}
}

// NewICBaseline builds the baseline IC-based semantic measure (the paper's
// reference [2]): plain sim_IC over corpus frequencies, no contextual
// differentiation, no path weight.
func NewICBaseline(ing *Ingestion, mapper match.Mapper, opts RelaxOptions) Method {
	sim := NewSimilarity(ing.Graph, WithoutContext(ing.Frequencies), ing.Ontology)
	sim.UsePathWeight = false
	return &relaxerMethod{name: "IC", relaxer: NewRelaxer(ing, sim, mapper, opts)}
}

// EmbeddingMethod is the deep-learning baseline of Section 7.2: it ranks
// the flagged external concepts by cosine similarity between the query
// term's phrase embedding and each concept name's embedding, with no use of
// the graph structure or the query context.
type EmbeddingMethod struct {
	name    string
	ing     *Ingestion
	encoder *embedding.SIFEncoder
	index   *embedding.Index
	keys    []int32 // the name-key position of each index position, ascending
}

// NewEmbeddingMethod indexes the name keys (preferred names and synonyms)
// of the flagged concepts under enc. name distinguishes the pre-trained and
// the corpus-trained baselines.
func NewEmbeddingMethod(name string, ing *Ingestion, enc *embedding.SIFEncoder) *EmbeddingMethod {
	m := &EmbeddingMethod{name: name, ing: ing, encoder: enc}
	fd := ing.Graph.FlatData()
	var vecs []embedding.Vector
	dim := 0
	for i := range fd.NameKeys.Len() {
		if !slices.ContainsFunc(fd.KeyIDs[fd.KeyOff[i]:fd.KeyOff[i+1]], ing.IsFlagged) {
			continue
		}
		v := enc.Encode(stringutil.Tokenize(fd.NameKeys.At(i)))
		if dim == 0 && len(v) > 0 {
			dim = len(v)
		}
		m.keys, vecs = append(m.keys, int32(i)), append(vecs, v)
	}
	m.index = embedding.NewIndex(dim)
	for _, v := range vecs {
		m.index.Add(v)
	}
	return m
}

// flaggedForKey returns the flagged concepts a name key names, ascending.
func (m *EmbeddingMethod) flaggedForKey(key int32) []eks.ConceptID {
	fd := m.ing.Graph.FlatData()
	ids := slices.Clone(fd.KeyIDs[fd.KeyOff[key]:fd.KeyOff[key+1]])
	ids = slices.DeleteFunc(ids, func(id eks.ConceptID) bool { return !m.ing.IsFlagged(id) })
	slices.Sort(ids)
	return ids
}

// Name implements Method.
func (m *EmbeddingMethod) Name() string { return m.name }

// RelaxConcepts implements Method; ctx is ignored — embeddings carry no
// contextual information, which is precisely the weakness the paper's
// experiments expose.
func (m *EmbeddingMethod) RelaxConcepts(term string, _ *ontology.Context, k int) []eks.ConceptID {
	q := m.encoder.Encode(stringutil.Tokenize(term))
	// Over-fetch: several name keys can map to the same concept.
	hits := m.index.Nearest(q, 4*k)
	var out []eks.ConceptID
	// The query concept itself (found by exact name or synonym) is not a
	// relaxation; drop it from the ranking up front.
	seen := map[eks.ConceptID]bool{}
	for _, id := range m.ing.Graph.LookupName(term) {
		seen[id] = true
	}
	for _, h := range hits {
		for _, id := range m.flaggedForKey(m.keys[h.Pos]) {
			if seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, id)
			if len(out) == k {
				return out
			}
		}
	}
	return out
}
