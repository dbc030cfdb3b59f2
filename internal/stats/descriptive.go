// Package stats provides the statistical machinery used throughout the
// reproduction: descriptive statistics, probability distributions
// (normal, Student-t, F), two-sample hypothesis tests (the pooled t-test,
// Mann-Whitney U, Levene), t-test power, and correlation/covariance.
//
// Section VI of the paper assesses model transferability with two-sample
// t-tests on CPI means; this package implements those tests along with the
// non-parametric alternatives the paper mentions (Mann-Whitney, Levene).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// ErrTooFew is returned by functions that require more observations than
// were supplied (for example a variance over fewer than two points).
var ErrTooFew = errors.New("stats: too few observations")

// Mean returns the arithmetic mean of xs.
// It returns 0 for an empty slice; callers that must distinguish the empty
// case should use Describe.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Kahan summation keeps long, small-magnitude accumulations accurate.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1) of xs,
// matching the paper's estimator in Equation 9.
// It returns 0 when fewer than two observations are supplied.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It copies xs and leaves it unsorted.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1)
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
}

// Describe computes a Summary of xs.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	lo, hi, _ := MinMax(xs)
	v := Variance(xs)
	return Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		Variance: v,
		StdDev:   math.Sqrt(v),
		Min:      lo,
		Max:      hi,
		Median:   Median(xs),
	}, nil
}

// Covariance returns the unbiased sample covariance between xs and ys.
// The slices must have equal length and at least two elements.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: covariance requires equal-length samples")
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrTooFew
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1), nil
}

// Correlation returns the Pearson correlation coefficient between xs and ys,
// the metric the paper calls C (Equation 12). If either sample has zero
// variance the correlation is undefined and 0 is returned with an error.
func Correlation(xs, ys []float64) (float64, error) {
	cov, err := Covariance(xs, ys)
	if err != nil {
		return 0, err
	}
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0, errors.New("stats: correlation undefined for zero-variance sample")
	}
	return cov / (sx * sy), nil
}
