package linreg

import (
	"testing"
)

// simplifyNaive is the pre-engine Simplify: a from-scratch fit per
// leave-one-term-out trial. With fit = Fit it is the reference the
// prefix-reusing engine must match bit for bit.
func simplifyNaive(m *Model, xs [][]float64, y []float64, fit func([][]float64, []float64, []int) (*Model, error)) *Model {
	best := m
	bestErr := CompensatedError(best, xs, y)
	trial := make([]int, 0, len(m.Terms))
	for {
		improved := false
		for drop := 0; drop < len(best.Terms); drop++ {
			trial = trial[:0]
			trial = append(trial, best.Terms[:drop]...)
			trial = append(trial, best.Terms[drop+1:]...)
			var cand *Model
			if len(trial) == 0 {
				cand = FitConstant(y)
			} else {
				var err error
				cand, err = fit(xs, y, trial)
				if err != nil {
					continue
				}
			}
			if e := CompensatedError(cand, xs, y); e <= bestErr {
				best, bestErr = cand, e
				improved = true
				break
			}
		}
		if !improved {
			return best
		}
	}
}

// modelsIdentical requires bitwise equality, not tolerance equality: the
// engine's contract is that it executes the same floating-point ops in
// the same order as a per-trial Fit.
func modelsIdentical(a, b *Model) bool {
	if a.Intercept != b.Intercept || len(a.Coef) != len(b.Coef) || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Coef {
		if a.Coef[i] != b.Coef[i] || a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}

// TestSimplifyEngineMatchesNaive drives Simplify across many random
// systems — varying row counts, term counts, noise levels, duplicated
// (degenerate) columns, and near-constant responses — and checks the
// prefix-reusing engine returns exactly the model the naive per-trial
// refit loop does.
func TestSimplifyEngineMatchesNaive(t *testing.T) {
	r := rng(20260805)
	for trial := 0; trial < 300; trial++ {
		nAttrs := 1 + int(r.next()%6)
		n := 2 + int(r.next()%40)
		xs := make([][]float64, n)
		y := make([]float64, n)
		// Random true coefficients; some attributes are forced to be
		// copies or constants so degenerate-column handling is exercised.
		coef := make([]float64, nAttrs)
		for j := range coef {
			coef[j] = 4*r.float() - 2
		}
		dupFrom := -1
		if nAttrs > 1 && r.next()%3 == 0 {
			dupFrom = int(r.next() % uint64(nAttrs-1))
		}
		constCol := -1
		if r.next()%4 == 0 {
			constCol = int(r.next() % uint64(nAttrs))
		}
		for i := 0; i < n; i++ {
			row := make([]float64, nAttrs)
			for j := range row {
				row[j] = r.float()
			}
			if dupFrom >= 0 {
				row[nAttrs-1] = row[dupFrom]
			}
			if constCol >= 0 {
				row[constCol] = 0.5
			}
			xs[i] = row
			v := 1.0
			for j, c := range coef {
				v += c * row[j]
			}
			// Noise scale varies per trial; occasionally noiseless so a
			// term drop is a clear no-op and the greedy loop runs long.
			if trial%5 != 0 {
				v += (r.float() - 0.5) * 0.3
			}
			y[i] = v
		}
		terms := make([]int, nAttrs)
		for j := range terms {
			terms[j] = j
		}
		m, err := Fit(xs, y, terms)
		if err != nil {
			t.Fatalf("trial %d: Fit: %v", trial, err)
		}
		got := Simplify(m, xs, y)
		want := simplifyNaive(m, xs, y, Fit)
		if !modelsIdentical(got, want) {
			t.Fatalf("trial %d (n=%d attrs=%d dup=%d const=%d):\nengine %+v\nnaive  %+v",
				trial, n, nAttrs, dupFrom, constCol, got, want)
		}
	}
}

// TestSimplifyEngineUnderDetermined checks the n < p fallback: with more
// parameters than rows the engine must defer to the naive path and still
// agree with it exactly.
func TestSimplifyEngineUnderDetermined(t *testing.T) {
	r := rng(7)
	for trial := 0; trial < 50; trial++ {
		nAttrs := 3 + int(r.next()%5)
		n := 2 + int(r.next()%uint64(nAttrs)) // n <= nAttrs < p
		xs := make([][]float64, n)
		y := make([]float64, n)
		for i := range xs {
			row := make([]float64, nAttrs)
			for j := range row {
				row[j] = r.float()
			}
			xs[i] = row
			y[i] = r.float()
		}
		terms := make([]int, nAttrs)
		for j := range terms {
			terms[j] = j
		}
		m, err := Fit(xs, y, terms)
		if err != nil {
			t.Fatalf("trial %d: Fit: %v", trial, err)
		}
		got := Simplify(m, xs, y)
		want := simplifyNaive(m, xs, y, Fit)
		if !modelsIdentical(got, want) {
			t.Fatalf("trial %d (n=%d attrs=%d):\nengine %+v\nnaive  %+v", trial, n, nAttrs, got, want)
		}
	}
}
