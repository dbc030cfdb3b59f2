package linreg

import (
	"testing"

	"specchar/internal/dataset"
)

// BenchmarkFit times one least-squares fit of a leaf-sized system: 48
// rows of 19 event densities, regressing on 8 of them plus the
// intercept, as tree induction fits a node's linear model thousands of
// times per build.
func BenchmarkFit(b *testing.B) {
	const rows, width = 48, 19
	rng := dataset.NewRNG(1)
	xs := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range xs {
		xs[i] = make([]float64, width)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
		y[i] = 1 + 2*xs[i][0] - xs[i][3] + 0.5*xs[i][7] + rng.Normal(0, 0.05)
	}
	terms := []int{0, 1, 2, 3, 5, 7, 11, 13}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Fit(xs, y, terms)
		if err != nil {
			b.Fatal(err)
		}
		benchModel = m
	}
}

// BenchmarkSimplifyRoot times the fit and greedy simplification of a
// root-sized node: about 6 000 rows of 19 event densities, the shape of
// the short-scale CPU2006 root, where each Householder norm is a chain
// thousands of steps long. CPI depends on a few of the densities, so
// Simplify drops most terms, refitting after each drop.
func BenchmarkSimplifyRoot(b *testing.B) {
	const rows, width = 6000, 19
	rng := dataset.NewRNG(2)
	xs := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range xs {
		xs[i] = make([]float64, width)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
		y[i] = 0.6 + 4.7*xs[i][2] - 0.2*xs[i][5] + 1.3*xs[i][11] + rng.Normal(0, 0.1)
	}
	terms := make([]int, width)
	for j := range terms {
		terms[j] = j
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Fit(xs, y, terms)
		if err != nil {
			b.Fatal(err)
		}
		benchModel = Simplify(m, xs, y)
	}
}

// benchModel keeps the benchmarked models observable.
var benchModel *Model
