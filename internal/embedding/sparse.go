package embedding

import (
	"math"
	"math/rand"
)

// sparseMatrix is a square symmetric matrix in compressed row form, used
// for the PPMI matrix. Only explicitly stored entries are nonzero.
type sparseMatrix struct {
	n    int
	rows [][]sparseEntry
}

type sparseEntry struct {
	col int
	val float64
}

func newSparseMatrix(n int) *sparseMatrix {
	return &sparseMatrix{n: n, rows: make([][]sparseEntry, n)}
}

// add appends an entry; callers must not add the same (row, col) twice.
func (m *sparseMatrix) add(row, col int, val float64) {
	m.rows[row] = append(m.rows[row], sparseEntry{col: col, val: val})
}

// mulVec computes dst = M·src. dst must have length n.
func (m *sparseMatrix) mulVec(dst, src []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i, row := range m.rows {
		s := 0.0
		for _, e := range row {
			s += e.val * src[e.col]
		}
		dst[i] = s
	}
}

// topEigen computes the k eigenpairs of the symmetric matrix m with the
// largest absolute eigenvalues, using blocked subspace (orthogonal)
// iteration with Gram–Schmidt re-orthogonalization. It returns the
// eigenvalues and, per eigenpair, the eigenvector of length n.
//
// The method is deterministic for a fixed seed. iters controls convergence;
// for embedding purposes tens of iterations suffice — downstream quality
// depends on the subspace, not on exact eigenvalues.
func (m *sparseMatrix) topEigen(k, iters int, seed int64) (vals []float64, vecs [][]float64) {
	if k > m.n {
		k = m.n
	}
	if k <= 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(seed))
	// Initialize a random orthonormal block Q (n x k).
	q := make([][]float64, k)
	for j := range q {
		q[j] = make([]float64, m.n)
		for i := range q[j] {
			q[j][i] = rng.NormFloat64()
		}
	}
	orthonormalize(q)
	tmp := make([][]float64, k)
	for j := range tmp {
		tmp[j] = make([]float64, m.n)
	}
	for it := 0; it < iters; it++ {
		for j := range q {
			m.mulVec(tmp[j], q[j])
		}
		q, tmp = tmp, q
		orthonormalize(q)
	}
	// Rayleigh quotients give the eigenvalue estimates.
	vals = make([]float64, k)
	buf := make([]float64, m.n)
	for j := range q {
		m.mulVec(buf, q[j])
		vals[j] = dot(buf, q[j])
	}
	// Sort by |eigenvalue| descending for a stable contract.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if math.Abs(vals[order[j]]) > math.Abs(vals[order[i]]) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	sortedVals := make([]float64, k)
	sortedVecs := make([][]float64, k)
	for i, o := range order {
		sortedVals[i] = vals[o]
		sortedVecs[i] = q[o]
	}
	return sortedVals, sortedVecs
}

// orthonormalize applies modified Gram–Schmidt to the row block q in place.
// Rows that collapse to (near) zero are re-randomized deterministically
// from their index to keep the block full rank.
func orthonormalize(q [][]float64) {
	for j := range q {
		for p := 0; p < j; p++ {
			proj := dot(q[j], q[p])
			for i := range q[j] {
				q[j][i] -= proj * q[p][i]
			}
		}
		n := norm(q[j])
		if n < 1e-12 {
			// Deterministic fallback basis vector.
			for i := range q[j] {
				q[j][i] = 0
			}
			q[j][j%len(q[j])] = 1
			// Re-orthogonalize against previous rows.
			for p := 0; p < j; p++ {
				proj := dot(q[j], q[p])
				for i := range q[j] {
					q[j][i] -= proj * q[p][i]
				}
			}
			n = norm(q[j])
			if n < 1e-12 {
				continue
			}
		}
		inv := 1 / n
		for i := range q[j] {
			q[j][i] *= inv
		}
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }
