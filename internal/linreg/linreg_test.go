package linreg

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return !math.IsNaN(a) && !math.IsNaN(b) && math.Abs(a-b) <= tol
}

// rng is a small deterministic generator (SplitMix64) for test data.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func TestFitExactLine(t *testing.T) {
	// y = 3 + 2x, noiseless.
	xs := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{3, 5, 7, 9}
	m, err := Fit(xs, y, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Intercept, 3, 1e-9) {
		t.Errorf("intercept = %v, want 3", m.Intercept)
	}
	if len(m.Coef) != 1 || !almostEqual(m.Coef[0], 2, 1e-9) {
		t.Errorf("coef = %v, want [2]", m.Coef)
	}
}

func TestFitMultivariate(t *testing.T) {
	// y = 1 + 2*x0 - 3*x1 + 0.5*x2 over a deterministic pseudo-random design.
	r := rng(42)
	var xs [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		row := []float64{r.float(), r.float(), r.float()}
		xs = append(xs, row)
		y = append(y, 1+2*row[0]-3*row[1]+0.5*row[2])
	}
	m, err := Fit(xs, y, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -3, 0.5}
	for j, w := range want {
		if !almostEqual(m.Coef[j], w, 1e-8) {
			t.Errorf("coef[%d] = %v, want %v", j, m.Coef[j], w)
		}
	}
	if !almostEqual(m.Intercept, 1, 1e-8) {
		t.Errorf("intercept = %v, want 1", m.Intercept)
	}
}

func TestFitSubsetOfColumns(t *testing.T) {
	// Fit on columns {2, 0} of a 4-wide row; Predict must address the
	// original column positions.
	r := rng(7)
	var xs [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		row := []float64{r.float(), r.float(), r.float(), r.float()}
		xs = append(xs, row)
		y = append(y, 10-4*row[2]+2*row[0])
	}
	m, err := Fit(xs, y, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{1, 99, 0.5, 99} // columns 1 and 3 must be ignored
	want := 10 - 4*0.5 + 2*1
	if got := m.Predict(probe); !almostEqual(got, want, 1e-8) {
		t.Errorf("Predict = %v, want %v", got, want)
	}
}

func TestFitConstantColumnDropped(t *testing.T) {
	// Column 1 is constant; it must be dropped, not produce NaN.
	xs := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{2, 4, 6, 8}
	m, err := Fit(xs, y, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("non-finite coefficient: %v", m.Coef)
		}
	}
	// Prediction must still be exact: y = 2*x0 (column 1 absorbed by intercept).
	if got := m.Predict([]float64{10, 5}); !almostEqual(got, 20, 1e-6) {
		t.Errorf("Predict = %v, want 20", got)
	}
}

func TestFitCollinearColumns(t *testing.T) {
	// Column 1 = 2 * column 0: perfectly collinear.
	var xs [][]float64
	var y []float64
	for i := 1; i <= 50; i++ {
		x := float64(i)
		xs = append(xs, []float64{x, 2 * x})
		y = append(y, 3*x+1)
	}
	m, err := Fit(xs, y, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{4, 8}); !almostEqual(got, 13, 1e-6) {
		t.Errorf("Predict on collinear fit = %v, want 13", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, []int{0}); err != ErrDimension {
		t.Errorf("empty fit err = %v, want ErrDimension", err)
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, []int{0}); err != ErrDimension {
		t.Errorf("mismatched fit err = %v, want ErrDimension", err)
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, []int{3}); err == nil {
		t.Error("out-of-range term should error")
	}
}

func TestFitConstant(t *testing.T) {
	m := FitConstant([]float64{2, 4, 6})
	if !almostEqual(m.Intercept, 4, 1e-12) || m.NumTerms() != 0 {
		t.Errorf("FitConstant = %+v", m)
	}
	if m := FitConstant(nil); m.Intercept != 0 {
		t.Errorf("FitConstant(nil) intercept = %v", m.Intercept)
	}
}

func TestFitOverdeterminedNoise(t *testing.T) {
	// With symmetric noise the estimate should land near the truth.
	r := rng(99)
	var xs [][]float64
	var y []float64
	for i := 0; i < 5000; i++ {
		x := r.float() * 10
		noise := (r.float() - 0.5) * 0.1
		xs = append(xs, []float64{x})
		y = append(y, 5+0.7*x+noise)
	}
	m, err := Fit(xs, y, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Coef[0], 0.7, 1e-2) || !almostEqual(m.Intercept, 5, 5e-2) {
		t.Errorf("noisy fit = %+v", m)
	}
}

func TestUnderdeterminedSystem(t *testing.T) {
	// Two rows, three regressors: must not crash, must fit the rows it has.
	xs := [][]float64{{1, 0, 0}, {0, 1, 0}}
	y := []float64{1, 2}
	m, err := Fit(xs, y, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range xs {
		if got := m.Predict(row); !almostEqual(got, y[i], 1e-6) {
			t.Errorf("underdetermined Predict(row %d) = %v, want %v", i, got, y[i])
		}
	}
}

func TestMAE(t *testing.T) {
	m := &Model{Intercept: 0, Coef: []float64{1}, Terms: []int{0}}
	xs := [][]float64{{1}, {2}}
	y := []float64{2, 2} // residuals: 1, 0
	if got := MAE(m, xs, y); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("MAE = %v, want 0.5", got)
	}
	if got := MAE(m, nil, nil); got != 0 {
		t.Errorf("MAE of empty = %v, want 0", got)
	}
}

func TestCompensatedErrorPenalizesTerms(t *testing.T) {
	xs := [][]float64{{1, 1}, {2, 4}, {3, 9}, {4, 16}, {5, 25}, {6, 36}}
	y := []float64{1.1, 2.0, 2.9, 4.2, 5.0, 5.9} // essentially linear
	m1, _ := Fit(xs, y, []int{0})
	m2, _ := Fit(xs, y, []int{0, 1})
	e1 := CompensatedError(m1, xs, y)
	e2raw := MAE(m2, xs, y)
	e1raw := MAE(m1, xs, y)
	// Raw error can only improve with more terms...
	if e2raw > e1raw+1e-12 {
		t.Errorf("raw MAE increased with extra term: %v > %v", e2raw, e1raw)
	}
	// ...but the compensation factor must be larger for the bigger model.
	n := float64(len(xs))
	f1 := (n + 2) / (n - 2)
	f2 := (n + 3) / (n - 3)
	if f2 <= f1 {
		t.Fatal("compensation factors not ordered")
	}
	_ = e1
}

func TestCompensatedErrorTooFewRows(t *testing.T) {
	m := &Model{Coef: []float64{1, 1, 1}, Terms: []int{0, 1, 2}}
	xs := [][]float64{{1, 2, 3}, {4, 5, 6}}
	y := []float64{1, 2}
	if got := CompensatedError(m, xs, y); got < 1e6 {
		t.Errorf("expected huge penalty when n <= v, got %v", got)
	}
}

func TestSimplifyDropsUselessTerms(t *testing.T) {
	// y depends only on column 0; columns 1 and 2 are pure noise. Simplify
	// should remove at least the noise terms without hurting accuracy.
	r := rng(1234)
	var xs [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		row := []float64{r.float(), r.float(), r.float()}
		xs = append(xs, row)
		y = append(y, 2+3*row[0]+(r.float()-0.5)*0.01)
	}
	full, err := Fit(xs, y, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	slim := Simplify(full, xs, y)
	if slim.NumTerms() >= full.NumTerms() && full.NumTerms() == 3 {
		t.Errorf("Simplify kept all %d terms", slim.NumTerms())
	}
	// Column 0 must survive.
	found := false
	for _, term := range slim.Terms {
		if term == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("Simplify dropped the informative term: %v", slim.Terms)
	}
}

func TestSimplifyToConstant(t *testing.T) {
	// Response independent of regressors: simplification should reach the
	// constant model.
	r := rng(5)
	var xs [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		xs = append(xs, []float64{r.float()})
		y = append(y, 7)
	}
	m, _ := Fit(xs, y, []int{0})
	slim := Simplify(m, xs, y)
	if slim.NumTerms() != 0 {
		t.Errorf("Simplify kept terms on constant response: %+v", slim)
	}
	if !almostEqual(slim.Intercept, 7, 1e-9) {
		t.Errorf("constant model intercept = %v, want 7", slim.Intercept)
	}
}

func TestEquationRendering(t *testing.T) {
	m := &Model{Intercept: 0.53, Coef: []float64{4.73, -0.198}, Terms: []int{0, 1}}
	eq := m.Equation("CPI", []string{"L1DMiss", "Store"})
	if !strings.Contains(eq, "CPI = 0.53") || !strings.Contains(eq, "+ 4.73*L1DMiss") ||
		!strings.Contains(eq, "- 0.198*Store") {
		t.Errorf("Equation = %q", eq)
	}
	// Unknown names fall back to column indices.
	eq = m.Equation("y", nil)
	if !strings.Contains(eq, "x0") || !strings.Contains(eq, "x1") {
		t.Errorf("Equation without names = %q", eq)
	}
}

// rss returns the residual sum of squares of the model over the rows.
func rss(m *Model, xs [][]float64, y []float64) float64 {
	var s float64
	for i, row := range xs {
		r := y[i] - m.Predict(row)
		s += r * r
	}
	return s
}

// Property: the least-squares residual of the fitted model never exceeds
// the residual of the constant (mean-only) model on the same data.
func TestFitBeatsConstantProperty(t *testing.T) {
	f := func(seed uint16, n8 uint8) bool {
		n := int(n8)%50 + 10
		r := rng(seed)
		var xs [][]float64
		var y []float64
		for i := 0; i < n; i++ {
			xs = append(xs, []float64{r.float() * 5, r.float() * 5})
			y = append(y, r.float()*10)
		}
		m, err := Fit(xs, y, []int{0, 1})
		if err != nil {
			return false
		}
		return rss(m, xs, y) <= rss(FitConstant(y), xs, y)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: prediction is linear — Predict(a + b) with coefficient vector c
// satisfies f(x) + f(z) - intercept = f(x + z) pointwise.
func TestPredictLinearityProperty(t *testing.T) {
	f := func(i1, c1, x1, z1 float64) bool {
		if math.IsNaN(i1) || math.IsNaN(c1) || math.IsNaN(x1) || math.IsNaN(z1) ||
			math.IsInf(i1, 0) || math.IsInf(c1, 0) || math.IsInf(x1, 0) || math.IsInf(z1, 0) {
			return true
		}
		clamp := func(v float64) float64 { return math.Mod(v, 1e3) }
		i1, c1, x1, z1 = clamp(i1), clamp(c1), clamp(x1), clamp(z1)
		m := &Model{Intercept: i1, Coef: []float64{c1}, Terms: []int{0}}
		lhs := m.Predict([]float64{x1}) + m.Predict([]float64{z1}) - i1
		rhs := m.Predict([]float64{x1 + z1})
		return almostEqual(lhs, rhs, 1e-6*(1+math.Abs(rhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
