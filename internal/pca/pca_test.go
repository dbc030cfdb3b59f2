package pca

import (
	"math"
	"testing"
	"testing/quick"

	"specchar/internal/dataset"
)

func almostEqual(a, b, tol float64) bool {
	return !math.IsNaN(a) && !math.IsNaN(b) && math.Abs(a-b) <= tol
}

// correlated2D draws points along the line y = 2x with small perpendicular
// noise: PC1 must align with (1,2)/sqrt(5) in raw space — after
// standardization, with (1,1)/sqrt(2).
func correlated2D(n int, seed uint64) [][]float64 {
	r := dataset.NewRNG(seed)
	rows := make([][]float64, n)
	for i := range rows {
		t := r.Float64()*10 - 5
		noise := (r.Float64() - 0.5) * 0.1
		rows[i] = []float64{t - 2*noise, 2*t + noise}
	}
	return rows
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err != ErrTooFew {
		t.Errorf("err = %v, want ErrTooFew", err)
	}
	if _, err := Fit([][]float64{{1, 2}}); err != ErrTooFew {
		t.Errorf("single row err = %v, want ErrTooFew", err)
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged input should error")
	}
}

func TestFitRecoverscorrelatedDirection(t *testing.T) {
	res, err := Fit(correlated2D(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	// PC1 explains nearly everything.
	ev := res.ExplainedVariance()
	if ev[0] < 0.95 {
		t.Errorf("PC1 explains %v, want > 0.95", ev[0])
	}
	// In standardized space the dominant direction is (1,1)/sqrt(2)
	// (up to sign).
	c := res.Components[0]
	want := 1 / math.Sqrt2
	if !almostEqual(math.Abs(c[0]), want, 0.02) || !almostEqual(math.Abs(c[1]), want, 0.02) {
		t.Errorf("PC1 = %v, want ±(0.707, 0.707)", c)
	}
	// Both components are unit length and orthogonal.
	dot := c[0]*res.Components[1][0] + c[1]*res.Components[1][1]
	if !almostEqual(dot, 0, 1e-9) {
		t.Errorf("components not orthogonal: dot = %v", dot)
	}
}

func TestEigenvaluesDescendingNonNegative(t *testing.T) {
	r := dataset.NewRNG(2)
	rows := make([][]float64, 200)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64() * 3, r.Normal(0, 2), r.Float64() + r.Normal(0, 0.1)}
	}
	res, err := Fit(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Eigenvalues); i++ {
		if res.Eigenvalues[i] > res.Eigenvalues[i-1]+1e-9 {
			t.Errorf("eigenvalues not descending: %v", res.Eigenvalues)
		}
	}
	for _, v := range res.Eigenvalues {
		if v < 0 {
			t.Errorf("negative eigenvalue %v", v)
		}
	}
	// Standardized total variance equals the dimension.
	var total float64
	for _, v := range res.Eigenvalues {
		total += v
	}
	if !almostEqual(total, 4, 0.01) {
		t.Errorf("eigenvalue sum = %v, want 4 (standardized)", total)
	}
}

func TestConstantColumn(t *testing.T) {
	rows := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	res, err := Fit(rows)
	if err != nil {
		t.Fatal(err)
	}
	// One informative dimension: PC1 explains everything.
	ev := res.ExplainedVariance()
	if !almostEqual(ev[0], 1, 1e-9) {
		t.Errorf("explained variance = %v", ev)
	}
	// Transform must not produce NaN.
	p, err := res.Transform([]float64{2.5, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p {
		if math.IsNaN(v) {
			t.Errorf("NaN in projection %v", p)
		}
	}
}

func TestTransform(t *testing.T) {
	rows := correlated2D(300, 3)
	res, _ := Fit(rows)
	// The projection of the mean point is the origin.
	p, err := res.Transform(res.Mean, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p[0], 0, 1e-9) || !almostEqual(p[1], 0, 1e-9) {
		t.Errorf("mean projects to %v, want origin", p)
	}
	// k clamps.
	p, _ = res.Transform(rows[0], 99)
	if len(p) != 2 {
		t.Errorf("clamped projection has %d dims", len(p))
	}
	p, _ = res.Transform(rows[0], 1)
	if len(p) != 1 {
		t.Errorf("k=1 projection has %d dims", len(p))
	}
	if _, err := res.Transform([]float64{1}, 1); err == nil {
		t.Error("wrong-width row should error")
	}
}

func TestTransformAllPreservesVariance(t *testing.T) {
	rows := correlated2D(400, 4)
	res, _ := Fit(rows)
	proj, err := res.TransformAll(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Variance along PC1 equals eigenvalue 1.
	var mean float64
	for _, p := range proj {
		mean += p[0]
	}
	mean /= float64(len(proj))
	var ss float64
	for _, p := range proj {
		d := p[0] - mean
		ss += d * d
	}
	v := ss / float64(len(proj)-1)
	if !almostEqual(v, res.Eigenvalues[0], 0.02*res.Eigenvalues[0]) {
		t.Errorf("PC1 variance %v, eigenvalue %v", v, res.Eigenvalues[0])
	}
}

func TestComponentsFor(t *testing.T) {
	rows := correlated2D(300, 5)
	res, _ := Fit(rows)
	if k := res.ComponentsFor(0.9); k != 1 {
		t.Errorf("ComponentsFor(0.9) = %d, want 1 for a 1D process", k)
	}
	if k := res.ComponentsFor(1.0); k != 2 {
		t.Errorf("ComponentsFor(1.0) = %d, want 2", k)
	}
}

func TestFitDataset(t *testing.T) {
	d := dataset.New(&dataset.Schema{Response: "y", Attributes: []string{"a", "b", "c"}})
	r := dataset.NewRNG(6)
	for i := 0; i < 50; i++ {
		x := r.Float64()
		_ = d.Append(dataset.Sample{X: []float64{x, 2 * x, r.Float64()}, Y: 0})
	}
	res, err := Fit(d.Xs())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dim != 3 {
		t.Errorf("Dim = %d", res.Dim)
	}
	// Columns a and b are perfectly correlated: PC3 near zero.
	if res.Eigenvalues[2] > 0.01 {
		t.Errorf("smallest eigenvalue = %v, want ~0 for collinear data", res.Eigenvalues[2])
	}
}

// Property: components form an orthonormal set for any well-formed input.
func TestOrthonormalityProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8)%40 + 10
		r := dataset.NewRNG(seed)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{r.Float64(), r.Normal(0, 1), r.Float64() * 2}
		}
		res, err := Fit(rows)
		if err != nil {
			return false
		}
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				var dot float64
				for j := 0; j < 3; j++ {
					dot += res.Components[a][j] * res.Components[b][j]
				}
				want := 0.0
				if a == b {
					want = 1.0
				}
				if !almostEqual(dot, want, 1e-7) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJacobiKnownMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := [][]float64{{2, 1}, {1, 2}}
	vals, vecs := jacobiEigen(a)
	got := []float64{vals[0], vals[1]}
	if got[0] < got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if !almostEqual(got[0], 3, 1e-10) || !almostEqual(got[1], 1, 1e-10) {
		t.Errorf("eigenvalues = %v, want [3 1]", got)
	}
	// Eigenvector columns are unit length.
	for c := 0; c < 2; c++ {
		norm := math.Hypot(vecs[0][c], vecs[1][c])
		if !almostEqual(norm, 1, 1e-10) {
			t.Errorf("eigenvector %d norm = %v", c, norm)
		}
	}
}
