package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrDomain is returned by the distribution functions when an argument
// lies outside the function's mathematical domain (a probability outside
// (0,1), non-positive degrees of freedom). Probabilities and degrees of
// freedom routinely arrive from configuration and measured data, so a
// domain violation is a diagnosable condition, not a programming error.
var ErrDomain = errors.New("stats: argument outside the function's domain")

// NormalCDF returns P(Z <= z) for a standard normal variable Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z such that NormalCDF(z) = p, using the
// Acklam rational approximation refined with one Halley step. It returns
// an error wrapping ErrDomain if p is outside (0, 1).
func NormalQuantile(p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return math.NaN(), fmt.Errorf("%w: NormalQuantile requires 0 < p < 1, got %v", ErrDomain, p)
	}
	return normalQuantile(p), nil
}

// normalQuantile is NormalQuantile for arguments already known to lie in
// (0, 1).
func normalQuantile(p float64) float64 {
	// Coefficients from Peter Acklam's approximation (relative error < 1.15e-9).
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// logGamma is math.Lgamma restricted to the positive arguments used here.
func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegularizedIncompleteBeta returns I_x(a, b), the regularized incomplete
// beta function, computed with the continued-fraction expansion of
// Numerical Recipes (betacf). Valid for a, b > 0 and 0 <= x <= 1.
func RegularizedIncompleteBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := logGamma(a+b) - logGamma(a) - logGamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaContinuedFraction(a, b, x) / a
	}
	return 1 - front*betaContinuedFraction(b, a, 1-x)/b
}

// betaContinuedFraction evaluates the continued fraction for the incomplete
// beta function by the modified Lentz method.
func betaContinuedFraction(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// studentTCDF returns P(T <= t) for a Student-t variable with df > 0
// degrees of freedom. Non-integer df is supported.
func studentTCDF(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegularizedIncompleteBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// studentTQuantile returns the t such that studentTCDF(t, df) = p, for
// 0 < p < 1 and df > 0, found by bisection on the monotone CDF.
func studentTQuantile(p, df float64) float64 {
	lo, hi := -1e6, 1e6
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if studentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// FCDF returns P(F <= f) for an F-distributed variable with (df1, df2)
// degrees of freedom.
func FCDF(f, df1, df2 float64) float64 {
	if f <= 0 {
		return 0
	}
	x := df1 * f / (df1*f + df2)
	return RegularizedIncompleteBeta(df1/2, df2/2, x)
}
