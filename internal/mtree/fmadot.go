package mtree

// Leaf-model dot products.
//
// Every prediction ends in intercept + Σ_j coefs[j]·x[j], and the order
// of that sum is part of the scorer's output contract: eight
// fused-multiply-add accumulator lanes striding the coefficient row
// (lane k folds terms j ≡ k mod 8), a zero-padded tail so lane
// assignment is width-independent, and one fixed combine order at the
// end (pairwise halving). math.FMA rounds exactly once per term on every
// platform, so the result is the same bits everywhere.
//
// The schedule was first chosen so hand-written AVX kernels could match
// it bitwise; those kernels are gone, and the schedule stays because
// outputs are pinned to its bits: the prediction-bits goldens
// (testdata/golden_predict_bits.txt here and at the repository root),
// served scores, cv.json and the results atlas. Changing it is a
// deliberate re-baseline of all of them, not a local refactor.

import "math"

// dotRow computes intercept + Σ coefs[j]·x[j] in the eight-lane FMA
// schedule. x must be at least len(coefs) wide.
func dotRow(intercept float64, coefs, x []float64) float64 {
	var acc [8]float64
	acc[0] = intercept
	j := 0
	for ; j+8 <= len(coefs); j += 8 {
		for k := 0; k < 8; k++ {
			acc[k] = math.FMA(coefs[j+k], x[j+k], acc[k])
		}
	}
	// The tail stride is zero-padded: lanes beyond the width execute
	// acc = fma(0, 0, acc) = acc + 0, and the stride is skipped entirely
	// when the width divides evenly. The +0 add is not a no-op for a -0
	// accumulator, so it stays.
	if rem := len(coefs) - j; rem > 0 {
		for k := 0; k < 8; k++ {
			if k < rem {
				acc[k] = math.FMA(coefs[j+k], x[j+k], acc[k])
			} else {
				acc[k] += 0
			}
		}
	}
	// Pairwise halving: 8→4 (lane k + lane k+4), 4→2, 2→1.
	s04, s15, s26, s37 := acc[0]+acc[4], acc[1]+acc[5], acc[2]+acc[6], acc[3]+acc[7]
	return (s04 + s26) + (s15 + s37)
}
