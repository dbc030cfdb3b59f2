package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanSimple(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{nil, 0},
		{[]float64{0.1, 0.2, 0.3}, 0.2},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMeanKahanStability(t *testing.T) {
	// 1e7 copies of 0.1 should average to exactly 0.1 with compensated summation.
	xs := make([]float64, 1e6)
	for i := range xs {
		xs[i] = 0.1
	}
	if got := Mean(xs); !almostEqual(got, 0.1, 1e-14) {
		t.Errorf("Mean of constant 0.1 slice = %.17g, want 0.1", got)
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known example: sample variance 32/7.
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of single element = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance of nil = %v, want 0", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Median(xs); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	// Median must not reorder the input.
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
	ys := []float64{1, 2, 3, 4}
	if got := Median(ys); got != 2.5 {
		t.Errorf("Median of even-length = %v, want 2.5", got)
	}
	if got := Quantile(ys, 0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := Quantile(ys, 1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4", got)
	}
	if got := Quantile(ys, 0.25); !almostEqual(got, 1.75, 1e-12) {
		t.Errorf("Quantile(0.25) = %v, want 1.75", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty slice should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -2, 7, 0})
	if err != nil || lo != -2 || hi != 7 {
		t.Errorf("MinMax = (%v, %v, %v), want (-2, 7, nil)", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Errorf("MinMax(nil) err = %v, want ErrEmpty", err)
	}
}

func TestDescribe(t *testing.T) {
	s, err := Describe([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Describe = %+v", s)
	}
	if !almostEqual(s.Variance, 2.5, 1e-12) {
		t.Errorf("Describe variance = %v, want 2.5", s.Variance)
	}
	if _, err := Describe(nil); err != ErrEmpty {
		t.Errorf("Describe(nil) err = %v, want ErrEmpty", err)
	}
}

func TestCovarianceAndCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8} // perfectly linear
	c, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 1, 1e-12) {
		t.Errorf("Correlation of linear data = %v, want 1", c)
	}
	neg := []float64{8, 6, 4, 2}
	c, err = Correlation(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, -1, 1e-12) {
		t.Errorf("Correlation of anti-linear data = %v, want -1", c)
	}
	if _, err := Correlation(xs, []float64{1, 1, 1, 1}); err == nil {
		t.Error("Correlation with zero-variance sample should error")
	}
	if _, err := Covariance(xs, ys[:2]); err == nil {
		t.Error("Covariance with mismatched lengths should error")
	}
	if _, err := Covariance([]float64{1}, []float64{2}); err != ErrTooFew {
		t.Errorf("Covariance with one point err = %v, want ErrTooFew", err)
	}
}

// Property: mean lies within [min, max]; variance is non-negative;
// shifting the data shifts the mean and leaves the variance unchanged.
func TestMeanVarianceProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 2 {
			return true
		}
		m := Mean(xs)
		lo, hi, _ := MinMax(xs)
		if m < lo-1e-9 || m > hi+1e-9 {
			return false
		}
		v := Variance(xs)
		if v < 0 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 10
		}
		return almostEqual(Mean(shifted), m+10, 1e-6*(1+math.Abs(m))) &&
			almostEqual(Variance(shifted), v, 1e-6*(1+v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: correlation is symmetric and bounded in [-1, 1].
func TestCorrelationProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 4 {
			return true
		}
		half := len(xs) / 2
		a, b := xs[:half], xs[half:2*half]
		c1, err1 := Correlation(a, b)
		c2, err2 := Correlation(b, a)
		if err1 != nil || err2 != nil {
			return true // zero-variance draws are legitimately undefined
		}
		return almostEqual(c1, c2, 1e-9) && c1 >= -1-1e-9 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sanitize clamps quick-generated values into a numerically sane range and
// drops NaN/Inf, which are out of scope for these estimators.
func sanitize(raw []float64) []float64 {
	out := raw[:0]
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if x > 1e6 {
			x = 1e6
		}
		if x < -1e6 {
			x = -1e6
		}
		out = append(out, x)
	}
	return out
}
