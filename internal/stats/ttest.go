package stats

import (
	"fmt"
	"math"
	"sort"
)

// TestResult reports the outcome of a two-sample hypothesis test.
//
// The Null hypothesis in every test here is "the two samples come from
// distributions with equal location" (H0: mu1 = mu2, the paper's Section
// VI-A formulation); RejectAt reports whether H0 is rejected at a given
// significance level.
type TestResult struct {
	Name      string  // test name, e.g. "two-sample pooled t-test"
	Statistic float64 // the test statistic (t, z, W, ...)
	DF        float64 // degrees of freedom where applicable (0 otherwise)
	PValue    float64 // two-sided p-value
	N1, N2    int     // sample sizes
	Mean1     float64 // sample means (or mean ranks for rank tests)
	Mean2     float64
}

// RejectAt reports whether the Null hypothesis is rejected at significance
// level alpha (e.g. 0.05 for the paper's 95% tests).
func (r TestResult) RejectAt(alpha float64) bool { return r.PValue < alpha }

// CriticalValue returns the two-sided critical value of the test's reference
// distribution at level alpha: the paper compares |t| against 1.960 for
// large samples at 95%.
func (r TestResult) CriticalValue(alpha float64) float64 {
	if !(alpha > 0 && alpha < 1) {
		return math.NaN()
	}
	if r.DF > 0 {
		return studentTQuantile(1-alpha/2, r.DF)
	}
	return normalQuantile(1 - alpha/2)
}

// String renders the result in the style used by EXPERIMENTS.md.
func (r TestResult) String() string {
	return fmt.Sprintf("%s: stat=%.4f df=%.1f p=%.4g (n1=%d mean1=%.5f, n2=%d mean2=%.5f)",
		r.Name, r.Statistic, r.DF, r.PValue, r.N1, r.Mean1, r.N2, r.Mean2)
}

// TwoSampleTTest performs the pooled-variance two-sample t-test the paper
// applies in Section VI-A (Equations 8-11): H0: mu1 = mu2. The pooled test
// assumes equal variances; the paper argues this is robust here because the
// samples are large and of comparable size.
func TwoSampleTTest(x1, x2 []float64) (TestResult, error) {
	n1, n2 := len(x1), len(x2)
	if n1 < 2 || n2 < 2 {
		return TestResult{}, ErrTooFew
	}
	m1, m2 := Mean(x1), Mean(x2)
	v1, v2 := Variance(x1), Variance(x2)
	// Standard error of the mean difference per the paper's Equation 10.
	se := math.Sqrt(v1/float64(n1) + v2/float64(n2))
	df := float64(n1 + n2 - 2)
	var t float64
	if se == 0 {
		if m1 == m2 {
			t = 0
		} else {
			t = math.Inf(sign(m1 - m2))
		}
	} else {
		t = (m1 - m2) / se
	}
	p := twoSidedTP(t, df)
	return TestResult{
		Name: "two-sample pooled t-test", Statistic: t, DF: df, PValue: p,
		N1: n1, N2: n2, Mean1: m1, Mean2: m2,
	}, nil
}

// MannWhitneyU performs the Mann-Whitney U rank-sum test with the normal
// approximation (appropriate for the large samples used here) and tie
// correction. It is the non-parametric test the paper lists as an
// alternative to the t-test.
func MannWhitneyU(x1, x2 []float64) (TestResult, error) {
	n1, n2 := len(x1), len(x2)
	if n1 == 0 || n2 == 0 {
		return TestResult{}, ErrEmpty
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x1 {
		all = append(all, obs{v, 1})
	}
	for _, v := range x2 {
		all = append(all, obs{v, 2})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign midranks, accumulating the tie-correction term sum(t^3 - t).
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.group == 1 {
			r1 += ranks[i]
		}
	}
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2
	mu := fn1 * fn2 / 2
	n := fn1 + fn2
	sigma2 := fn1 * fn2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	var z float64
	if sigma2 > 0 {
		z = (u1 - mu) / math.Sqrt(sigma2)
	}
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	return TestResult{
		Name: "Mann-Whitney U (normal approx.)", Statistic: z, PValue: p,
		N1: n1, N2: n2, Mean1: Mean(x1), Mean2: Mean(x2),
	}, nil
}

// LeveneTest performs Levene's test for equality of variances between two
// samples using deviations from the group medians (the Brown-Forsythe
// variant, which is robust to non-normality).
func LeveneTest(x1, x2 []float64) (TestResult, error) {
	n1, n2 := len(x1), len(x2)
	if n1 < 2 || n2 < 2 {
		return TestResult{}, ErrTooFew
	}
	z1 := absDeviations(x1, Median(x1))
	z2 := absDeviations(x2, Median(x2))
	m1, m2 := Mean(z1), Mean(z2)
	grand := (float64(n1)*m1 + float64(n2)*m2) / float64(n1+n2)
	between := float64(n1)*(m1-grand)*(m1-grand) + float64(n2)*(m2-grand)*(m2-grand)
	var within float64
	for _, z := range z1 {
		within += (z - m1) * (z - m1)
	}
	for _, z := range z2 {
		within += (z - m2) * (z - m2)
	}
	df1, df2 := 1.0, float64(n1+n2-2)
	var w float64
	if within > 0 {
		w = (df2 / df1) * between / within
	} else if between > 0 {
		w = math.Inf(1)
	}
	p := 1 - FCDF(w, df1, df2)
	return TestResult{
		Name: "Levene (Brown-Forsythe) test", Statistic: w, DF: df2, PValue: p,
		N1: n1, N2: n2, Mean1: Variance(x1), Mean2: Variance(x2),
	}, nil
}

func absDeviations(xs []float64, center float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Abs(x - center)
	}
	return out
}

func twoSidedTP(t, df float64) float64 {
	if !(df > 0) {
		return math.NaN()
	}
	if math.IsInf(t, 0) {
		return 0
	}
	p := 2 * (1 - studentTCDF(math.Abs(t), df))
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// TTestPower returns the approximate power of the two-sample t-test at
// significance alpha to detect a true mean difference delta between
// populations with common standard deviation sd, given group sizes n1 and
// n2 (normal approximation to the noncentral t, accurate for the large
// samples this study uses).
//
// The paper's Section VI conclusions rest on these tests; power analysis
// answers the companion question "how small a CPI difference could they
// even have seen?".
func TTestPower(delta, sd float64, n1, n2 int, alpha float64) (float64, error) {
	if n1 < 2 || n2 < 2 {
		return 0, ErrTooFew
	}
	if sd <= 0 {
		return 0, fmt.Errorf("stats: power requires positive sd, got %v", sd)
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("stats: power requires 0 < alpha < 1, got %v", alpha)
	}
	se := sd * math.Sqrt(1/float64(n1)+1/float64(n2))
	ncp := math.Abs(delta) / se // noncentrality
	zcrit, err := NormalQuantile(1 - alpha/2)
	if err != nil {
		return 0, err
	}
	// P(reject) = P(Z > zcrit - ncp) + P(Z < -zcrit - ncp).
	return (1 - NormalCDF(zcrit-ncp)) + NormalCDF(-zcrit-ncp), nil
}

// DetectableDifference returns the smallest true mean difference the
// two-sample t-test detects with the given power at significance alpha —
// the minimum detectable effect size of the study design.
func DetectableDifference(sd float64, n1, n2 int, alpha, power float64) (float64, error) {
	if power <= 0 || power >= 1 {
		return 0, fmt.Errorf("stats: power must be in (0,1), got %v", power)
	}
	if _, err := TTestPower(1, sd, n1, n2, alpha); err != nil {
		return 0, err
	}
	// Monotone in delta: bisect.
	lo, hi := 0.0, sd*20
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		p, _ := TTestPower(mid, sd, n1, n2, alpha)
		if p < power {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
