// Package embedding provides from-scratch distributional word embeddings
// and phrase encodings used by the EMBEDDING mapping method and the
// embedding baselines of the paper (Section 7.2).
//
// The pipeline is classical count-based distributional semantics: windowed
// co-occurrence counts over a token corpus, positive pointwise mutual
// information (PPMI) reweighting, and a truncated spectral factorization,
// yielding dense word vectors comparable in behaviour to word2vec-family
// models (Levy & Goldberg showed SGNS implicitly factorizes shifted PMI).
// Phrase embeddings use the SIF scheme of Arora et al. — the paper's
// reference [3] — frequency-weighted averaging followed by removal of the
// common component.
package embedding

import (
	"fmt"
	"math"
)

// Vector is a dense embedding vector.
type Vector []float64

// Dot returns the inner product of a and b. It panics if lengths differ,
// since mixing vectors from different models is a programming error.
func (a Vector) Dot(b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("embedding: dimension mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean norm.
func (a Vector) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// IsZero reports whether every component is zero.
func (a Vector) IsZero() bool {
	for _, v := range a {
		if v != 0 {
			return false
		}
	}
	return true
}

// Add accumulates b into a in place.
func (a Vector) Add(b Vector) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("embedding: dimension mismatch %d vs %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
}

// AddScaled accumulates s*b into a in place.
func (a Vector) AddScaled(s float64, b Vector) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("embedding: dimension mismatch %d vs %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += s * b[i]
	}
}

// Scale multiplies a by s in place.
func (a Vector) Scale(s float64) {
	for i := range a {
		a[i] *= s
	}
}

// Cosine returns the cosine similarity of a and b in [-1, 1]. Zero vectors
// have similarity 0 with everything, which is the conservative choice for
// out-of-vocabulary terms.
func Cosine(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	c := a.Dot(b) / (na * nb)
	// Clamp floating-point excursions.
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}
