package stats

import (
	"math"
	"testing"
)

// rng is a tiny deterministic generator for test data (SplitMix64).
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// normal draws an approximately normal variate via the CLT (12 uniforms).
func (r *rng) normal(mu, sigma float64) float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.float()
	}
	return mu + sigma*(s-6)
}

func normalSample(seed rng, n int, mu, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = seed.normal(mu, sigma)
	}
	return out
}

func TestTwoSampleTTestSameDistribution(t *testing.T) {
	x1 := normalSample(1, 2000, 1.0, 0.5)
	x2 := normalSample(99, 2000, 1.0, 0.5)
	res, err := TwoSampleTTest(x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectAt(0.01) {
		t.Errorf("t-test rejected H0 for identical distributions: %v", res)
	}
	if math.Abs(res.Statistic) > res.CriticalValue(0.01) {
		t.Errorf("|t| = %v exceeds critical value %v", math.Abs(res.Statistic), res.CriticalValue(0.01))
	}
}

func TestTwoSampleTTestDifferentMeans(t *testing.T) {
	x1 := normalSample(1, 2000, 1.0, 0.5)
	x2 := normalSample(2, 2000, 1.3, 0.5)
	res, err := TwoSampleTTest(x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectAt(0.05) {
		t.Errorf("t-test failed to reject H0 for shifted distributions: %v", res)
	}
	// Direction: mean1 < mean2 implies negative t.
	if res.Statistic >= 0 {
		t.Errorf("t statistic sign wrong: %v", res.Statistic)
	}
}

func TestTwoSampleTTestErrors(t *testing.T) {
	if _, err := TwoSampleTTest([]float64{1}, []float64{1, 2}); err != ErrTooFew {
		t.Errorf("err = %v, want ErrTooFew", err)
	}
}

func TestTwoSampleTTestZeroVariance(t *testing.T) {
	same := []float64{2, 2, 2}
	res, err := TwoSampleTTest(same, []float64{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 {
		t.Errorf("identical constant samples: t = %v, want 0", res.Statistic)
	}
	res, err = TwoSampleTTest(same, []float64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Statistic, -1) {
		t.Errorf("distinct constant samples: t = %v, want -Inf", res.Statistic)
	}
	if res.PValue != 0 {
		t.Errorf("p-value for infinite t = %v, want 0", res.PValue)
	}
}

func TestMannWhitneyU(t *testing.T) {
	x1 := normalSample(11, 1500, 0, 1)
	x2 := normalSample(12, 1500, 0, 1)
	res, err := MannWhitneyU(x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectAt(0.01) {
		t.Errorf("Mann-Whitney rejected H0 for identical distributions: %v", res)
	}
	x3 := normalSample(13, 1500, 0.5, 1)
	res, err = MannWhitneyU(x1, x3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectAt(0.05) {
		t.Errorf("Mann-Whitney failed to reject for shifted sample: %v", res)
	}
	if _, err := MannWhitneyU(nil, x1); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestMannWhitneyUWithTies(t *testing.T) {
	// Heavily tied data must not produce NaN.
	x1 := []float64{1, 1, 1, 2, 2, 3, 3, 3}
	x2 := []float64{2, 2, 2, 3, 3, 4, 4, 4}
	res, err := MannWhitneyU(x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Statistic) || math.IsNaN(res.PValue) {
		t.Errorf("Mann-Whitney produced NaN on tied data: %v", res)
	}
	if res.Statistic >= 0 {
		t.Errorf("x1 stochastically below x2 should give negative z, got %v", res.Statistic)
	}
}

func TestLeveneTest(t *testing.T) {
	x1 := normalSample(21, 1000, 0, 1)
	x2 := normalSample(22, 1000, 5, 1) // different mean, same variance
	res, err := LeveneTest(x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectAt(0.01) {
		t.Errorf("Levene rejected equal variances: %v", res)
	}
	x3 := normalSample(23, 1000, 0, 3)
	res, err = LeveneTest(x1, x3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectAt(0.05) {
		t.Errorf("Levene failed to reject 9x variance ratio: %v", res)
	}
	if _, err := LeveneTest([]float64{1}, x1); err != ErrTooFew {
		t.Errorf("err = %v, want ErrTooFew", err)
	}
}

func TestTestResultString(t *testing.T) {
	res := TestResult{Name: "x", Statistic: 1.5, DF: 10, PValue: 0.05, N1: 3, N2: 4, Mean1: 1, Mean2: 2}
	if s := res.String(); s == "" {
		t.Error("String() returned empty")
	}
}

func TestCriticalValueLargeSample(t *testing.T) {
	// With large df the critical value approaches the paper's 1.960.
	res := TestResult{DF: 400000}
	if cv := res.CriticalValue(0.05); !almostEqual(cv, 1.960, 1e-3) {
		t.Errorf("critical value = %v, want ~1.960", cv)
	}
	// Without df, falls back to normal.
	res = TestResult{}
	if cv := res.CriticalValue(0.05); !almostEqual(cv, 1.95996, 1e-4) {
		t.Errorf("normal critical value = %v", cv)
	}
}

func TestTTestPower(t *testing.T) {
	// Zero difference: power equals alpha (the false-positive rate).
	p, err := TTestPower(0, 1, 100, 100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p, 0.05, 1e-3) {
		t.Errorf("power at delta 0 = %v, want alpha", p)
	}
	// Classic reference point: delta = sd, n = 17 per group gives ~80%
	// power at alpha 0.05.
	p, _ = TTestPower(1, 1, 17, 17, 0.05)
	if p < 0.75 || p > 0.88 {
		t.Errorf("power(delta=sd, n=17) = %v, want ~0.80", p)
	}
	// Power grows with delta and with n.
	p1, _ := TTestPower(0.2, 1, 50, 50, 0.05)
	p2, _ := TTestPower(0.5, 1, 50, 50, 0.05)
	p3, _ := TTestPower(0.2, 1, 500, 500, 0.05)
	if p2 <= p1 || p3 <= p1 {
		t.Errorf("power not monotone: %v %v %v", p1, p2, p3)
	}
	// Huge samples, as in the paper (n ~ 208k): even tiny CPI shifts are
	// detectable with near-certain power.
	p, _ = TTestPower(0.01, 0.53, 208373, 135582, 0.05)
	if p < 0.99 {
		t.Errorf("paper-scale power for 0.01 CPI = %v, want ~1", p)
	}
	if _, err := TTestPower(1, 0, 10, 10, 0.05); err == nil {
		t.Error("zero sd should error")
	}
	if _, err := TTestPower(1, 1, 1, 10, 0.05); err != ErrTooFew {
		t.Errorf("err = %v", err)
	}
	if _, err := TTestPower(1, 1, 10, 10, 2); err == nil {
		t.Error("bad alpha should error")
	}
}

func TestDetectableDifference(t *testing.T) {
	// Round-trip: the detectable difference at 80% power indeed yields
	// ~80% power.
	d, err := DetectableDifference(1, 100, 100, 0.05, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := TTestPower(d, 1, 100, 100, 0.05)
	if !almostEqual(p, 0.8, 1e-3) {
		t.Errorf("power at detectable difference = %v, want 0.80", p)
	}
	// Bigger samples shrink the detectable difference.
	dBig, _ := DetectableDifference(1, 10000, 10000, 0.05, 0.8)
	if dBig >= d {
		t.Errorf("detectable difference did not shrink: %v vs %v", dBig, d)
	}
	if _, err := DetectableDifference(1, 100, 100, 0.05, 2); err == nil {
		t.Error("bad power should error")
	}
	if _, err := DetectableDifference(0, 100, 100, 0.05, 0.8); err == nil {
		t.Error("zero sd should error")
	}
}
