package embedding

import (
	"fmt"
	"sort"

	"math"
)

// Config controls embedding training.
type Config struct {
	// Dim is the embedding dimensionality. Default 96.
	Dim int
	// Window is the symmetric co-occurrence window half-width. Default 4.
	Window int
	// MinCount drops words occurring fewer times than this. Default 2.
	MinCount int
	// Iterations is the number of subspace-iteration rounds. Default 30.
	Iterations int
	// Seed makes training deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 96
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
	if c.Iterations <= 0 {
		c.Iterations = 30
	}
	return c
}

// Model holds trained word vectors.
type Model struct {
	dim     int
	vocab   map[string]int
	words   []string
	vectors []Vector
	// freq is the corpus relative frequency per vocabulary word, kept for
	// SIF weighting.
	freq []float64
}

// Train builds a model from token streams (each stream is one section or
// sentence of the corpus): it counts windowed co-occurrences, reweights
// them by PPMI, and factorizes the PPMI matrix spectrally. An error is
// returned when the corpus has no word above MinCount.
func Train(streams [][]string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()

	// Pass 1: vocabulary.
	counts := map[string]int{}
	total := 0
	for _, s := range streams {
		for _, tok := range s {
			counts[tok]++
			total++
		}
	}
	var words []string
	for w, c := range counts {
		if c >= cfg.MinCount {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("embedding: empty vocabulary (corpus of %d tokens, min count %d)", total, cfg.MinCount)
	}
	sort.Strings(words)
	vocab := make(map[string]int, len(words))
	for i, w := range words {
		vocab[w] = i
	}

	// Pass 2: windowed co-occurrence counts (symmetric).
	cooc := make([]map[int]float64, len(words))
	for i := range cooc {
		cooc[i] = map[int]float64{}
	}
	for _, s := range streams {
		idx := make([]int, len(s))
		for i, tok := range s {
			if wi, ok := vocab[tok]; ok {
				idx[i] = wi
			} else {
				idx[i] = -1
			}
		}
		for i, wi := range idx {
			if wi < 0 {
				continue
			}
			lo := i - cfg.Window
			if lo < 0 {
				lo = 0
			}
			for j := lo; j < i; j++ {
				wj := idx[j]
				if wj < 0 {
					continue
				}
				// Distance-discounted count, as in GloVe.
				w := 1.0 / float64(i-j)
				cooc[wi][wj] += w
				cooc[wj][wi] += w
			}
		}
	}

	// PPMI reweighting. Sums run in sorted column order so floating-point
	// accumulation — and therefore the trained model — is deterministic.
	sortedCols := make([][]int, len(words))
	for i, row := range cooc {
		cols := make([]int, 0, len(row))
		for j := range row {
			cols = append(cols, j)
		}
		sort.Ints(cols)
		sortedCols[i] = cols
	}
	rowSums := make([]float64, len(words))
	grand := 0.0
	for i, cols := range sortedCols {
		for _, j := range cols {
			rowSums[i] += cooc[i][j]
			grand += cooc[i][j]
		}
	}
	if grand == 0 {
		return nil, fmt.Errorf("embedding: no co-occurrences (streams too short for window %d)", cfg.Window)
	}
	mat := newSparseMatrix(len(words))
	for i, row := range cooc {
		for _, j := range sortedCols[i] {
			v := row[j]
			pmi := math.Log(v * grand / (rowSums[i] * rowSums[j]))
			if pmi > 0 {
				mat.add(i, j, pmi)
			}
		}
	}

	// Spectral factorization: embedding of word i is
	// [ sqrt(|λ_j|) · q_j[i] ]_j over the top-k eigenpairs.
	vals, vecs := mat.topEigen(cfg.Dim, cfg.Iterations, cfg.Seed)
	dim := len(vals)
	vectors := make([]Vector, len(words))
	for i := range vectors {
		v := make(Vector, dim)
		for j := range vals {
			v[j] = math.Sqrt(math.Abs(vals[j])) * vecs[j][i]
		}
		vectors[i] = v
	}

	freq := make([]float64, len(words))
	for i, w := range words {
		freq[i] = float64(counts[w]) / float64(total)
	}
	return &Model{dim: dim, vocab: vocab, words: words, vectors: vectors, freq: freq}, nil
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// Word returns the vector for a word. ok is false for out-of-vocabulary
// words.
func (m *Model) Word(word string) (Vector, bool) {
	i, ok := m.vocab[word]
	if !ok {
		return nil, false
	}
	return m.vectors[i], true
}

// WordFrequency returns the training-corpus relative frequency of word, or
// 0 when out of vocabulary.
func (m *Model) WordFrequency(word string) float64 {
	i, ok := m.vocab[word]
	if !ok {
		return 0
	}
	return m.freq[i]
}
