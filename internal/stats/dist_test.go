package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{1, 0.8413447461},
		{-1, 0.1586552539},
		{3, 0.9986501020},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %.10f, want %.10f", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999} {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatalf("NormalQuantile(%v): %v", p, err)
		}
		if got := NormalCDF(z); !almostEqual(got, p, 1e-10) {
			t.Errorf("NormalCDF(NormalQuantile(%v)) = %v", p, got)
		}
	}
	// The 97.5% point is the paper's 1.960 critical value.
	if z, _ := NormalQuantile(0.975); !almostEqual(z, 1.95996, 1e-4) {
		t.Errorf("NormalQuantile(0.975) = %v, want 1.95996", z)
	}
}

func TestDistributionDomainErrors(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2, math.NaN()} {
		if _, err := NormalQuantile(p); !errors.Is(err, ErrDomain) {
			t.Errorf("NormalQuantile(%v) err = %v, want ErrDomain", p, err)
		}
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Values from standard t tables.
	cases := []struct{ t, df, want float64 }{
		{0, 5, 0.5},
		{2.015, 5, 0.95}, // one-sided 95% for df=5
		{-2.015, 5, 0.05},
		{1.812, 10, 0.95},   // df=10
		{2.228, 10, 0.975},  // two-sided 95% for df=10
		{1.960, 1e6, 0.975}, // converges to normal for large df
	}
	for _, c := range cases {
		if got := studentTCDF(c.t, c.df); !almostEqual(got, c.want, 5e-4) {
			t.Errorf("studentTCDF(%v, %v) = %.5f, want %.5f", c.t, c.df, got, c.want)
		}
	}
}

func TestStudentTCDFInfinity(t *testing.T) {
	if got := studentTCDF(math.Inf(1), 5); got != 1 {
		t.Errorf("studentTCDF(+Inf) = %v, want 1", got)
	}
	if got := studentTCDF(math.Inf(-1), 5); got != 0 {
		t.Errorf("studentTCDF(-Inf) = %v, want 0", got)
	}
}

func TestStudentTQuantileRoundTrip(t *testing.T) {
	for _, df := range []float64{1, 3, 10, 100} {
		for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.975} {
			q := studentTQuantile(p, df)
			if got := studentTCDF(q, df); !almostEqual(got, p, 1e-6) {
				t.Errorf("studentTCDF(studentTQuantile(%v, df=%v)) = %v", p, df, got)
			}
		}
	}
}

func TestFCDFKnownValues(t *testing.T) {
	// F(0.95; 1, 10) = 4.965, so FCDF(4.965, 1, 10) ~ 0.95.
	if got := FCDF(4.965, 1, 10); !almostEqual(got, 0.95, 1e-3) {
		t.Errorf("FCDF(4.965,1,10) = %v, want 0.95", got)
	}
	if got := FCDF(0, 3, 7); got != 0 {
		t.Errorf("FCDF(0) = %v, want 0", got)
	}
	// F CDF is monotone in f.
	if FCDF(1, 5, 5) >= FCDF(2, 5, 5) {
		t.Error("FCDF not monotone")
	}
}

func TestRegularizedIncompleteBetaBounds(t *testing.T) {
	if got := RegularizedIncompleteBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v, want 0", got)
	}
	if got := RegularizedIncompleteBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v, want 1", got)
	}
	// I_x(1,1) is the uniform CDF: I_x = x.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegularizedIncompleteBeta(1, 1, x); !almostEqual(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
}

// Property: CDFs are monotone non-decreasing and bounded in [0,1].
func TestCDFMonotonicityProperty(t *testing.T) {
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 10) - 5 // [-5, 5)
		y := math.Mod(math.Abs(b), 10) - 5
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		for _, df := range []float64{2, 30} {
			px, py := studentTCDF(x, df), studentTCDF(y, df)
			if px < 0 || py > 1 || px > py+1e-12 {
				return false
			}
		}
		nx, ny := NormalCDF(x), NormalCDF(y)
		return nx >= 0 && ny <= 1 && nx <= ny+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Student-t converges to the normal as df grows.
func TestStudentTNormalConvergence(t *testing.T) {
	for _, z := range []float64{-2, -0.5, 0.3, 1.7} {
		tv, nv := studentTCDF(z, 1e7), NormalCDF(z)
		if !almostEqual(tv, nv, 1e-5) {
			t.Errorf("studentTCDF(%v, 1e7) = %v, NormalCDF = %v", z, tv, nv)
		}
	}
}
