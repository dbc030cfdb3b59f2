// Package pca implements principal component analysis over benchmark
// event-density data.
//
// The paper's related-work section (Section II) surveys PCA-and-clustering
// benchmark subsetting ([12], [13], [14]) as the sibling methodology to
// its model-tree characterization; this package provides that methodology
// so the two can be compared on the same synthetic data (see
// internal/cluster for the clustering side and the subsetting experiment
// in the facade).
//
// The eigendecomposition is a cyclic Jacobi rotation solver for symmetric
// matrices — exact, dependency-free, and ample for the 19x19 covariance
// matrices this study produces.
package pca

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Result holds a fitted PCA basis.
type Result struct {
	// Dim is the input dimensionality.
	Dim int
	// Mean and Scale are the standardization applied before the
	// decomposition (zero mean, unit variance; constant columns get
	// Scale 1 and contribute nothing).
	Mean  []float64
	Scale []float64
	// Components holds the principal axes, one per row, sorted by
	// descending eigenvalue; each is a unit vector in standardized space.
	Components [][]float64
	// Eigenvalues are the variances along the components, descending.
	Eigenvalues []float64
}

// ErrTooFew is returned when fewer than two observations are supplied.
var ErrTooFew = errors.New("pca: need at least two rows")

// Fit computes the principal components of the rows (observations x
// variables). Columns are standardized first, as the benchmark-subsetting
// literature does for PMU event densities, so high-magnitude events do
// not drown out rare ones.
func Fit(rows [][]float64) (*Result, error) {
	n := len(rows)
	if n < 2 {
		return nil, ErrTooFew
	}
	dim := len(rows[0])
	for _, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("pca: ragged input (%d vs %d columns)", len(r), dim)
		}
	}
	res := &Result{Dim: dim, Mean: make([]float64, dim), Scale: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += rows[i][j]
		}
		res.Mean[j] = sum / float64(n)
	}
	for j := 0; j < dim; j++ {
		var ss float64
		for i := 0; i < n; i++ {
			d := rows[i][j] - res.Mean[j]
			ss += d * d
		}
		res.Scale[j] = math.Sqrt(ss / float64(n-1))
		if res.Scale[j] == 0 {
			res.Scale[j] = 1 // constant column: standardizes to all zeros
		}
	}
	// Covariance (= correlation, after standardization) matrix.
	cov := make([][]float64, dim)
	for j := range cov {
		cov[j] = make([]float64, dim)
	}
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			var s float64
			for i := 0; i < n; i++ {
				za := (rows[i][a] - res.Mean[a]) / res.Scale[a]
				zb := (rows[i][b] - res.Mean[b]) / res.Scale[b]
				s += za * zb
			}
			s /= float64(n - 1)
			cov[a][b] = s
			cov[b][a] = s
		}
	}
	vals, vecs := jacobiEigen(cov)
	// Sort descending by eigenvalue.
	order := make([]int, dim)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return vals[order[i]] > vals[order[j]] })
	res.Eigenvalues = make([]float64, dim)
	res.Components = make([][]float64, dim)
	for k, idx := range order {
		v := vals[idx]
		if v < 0 && v > -1e-12 {
			v = 0 // numerical noise on a PSD matrix
		}
		res.Eigenvalues[k] = v
		comp := make([]float64, dim)
		for j := 0; j < dim; j++ {
			comp[j] = vecs[j][idx] // column idx of the rotation product
		}
		res.Components[k] = comp
	}
	return res, nil
}

// Transform projects a row onto the first k principal components.
func (r *Result) Transform(row []float64, k int) ([]float64, error) {
	if len(row) != r.Dim {
		return nil, fmt.Errorf("pca: row width %d, want %d", len(row), r.Dim)
	}
	if k <= 0 || k > len(r.Components) {
		k = len(r.Components)
	}
	z := make([]float64, r.Dim)
	for j := range row {
		z[j] = (row[j] - r.Mean[j]) / r.Scale[j]
	}
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		var s float64
		for j := range z {
			s += z[j] * r.Components[c][j]
		}
		out[c] = s
	}
	return out, nil
}

// TransformAll projects every row onto the first k components.
func (r *Result) TransformAll(rows [][]float64, k int) ([][]float64, error) {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		p, err := r.Transform(row, k)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// ExplainedVariance returns the fraction of total variance captured by
// each component (descending, sums to 1 for non-degenerate input).
func (r *Result) ExplainedVariance() []float64 {
	var total float64
	for _, v := range r.Eigenvalues {
		total += v
	}
	out := make([]float64, len(r.Eigenvalues))
	if total <= 0 {
		return out
	}
	for i, v := range r.Eigenvalues {
		out[i] = v / total
	}
	return out
}

// ComponentsFor returns the smallest k whose components explain at least
// the given fraction of variance (the "retain 80-90%" rule of the
// subsetting papers).
func (r *Result) ComponentsFor(fraction float64) int {
	var cum float64
	ev := r.ExplainedVariance()
	for i, v := range ev {
		cum += v
		if cum >= fraction {
			return i + 1
		}
	}
	return len(ev)
}

// jacobiEigen diagonalizes a symmetric matrix with cyclic Jacobi
// rotations, returning eigenvalues and the accumulated rotation matrix
// (eigenvectors as columns). The input matrix is modified.
func jacobiEigen(a [][]float64) (vals []float64, vecs [][]float64) {
	n := len(a)
	vecs = make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, n)
		vecs[i][i] = 1
	}
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += a[p][q] * a[p][q]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(a[p][q]) < 1e-18 {
					continue
				}
				// Compute the rotation annihilating a[p][q].
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply J^T A J.
				for k := 0; k < n; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = c*akp - s*akq
					a[k][q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = c*apk - s*aqk
					a[q][k] = s*apk + c*aqk
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := vecs[k][p], vecs[k][q]
					vecs[k][p] = c*vkp - s*vkq
					vecs[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i][i]
	}
	return vals, vecs
}
