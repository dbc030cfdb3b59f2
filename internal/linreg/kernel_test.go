package linreg

import (
	"math"
	"testing"
)

// householderStepRef is the elimination step as it was before the
// inlined norm chain and the four-column reflector passes: the norm is
// a chain of math.Hypot calls, and the reflector is applied with one
// dot-product pass and one update pass per trailing column, then b. The
// production kernel must reproduce it bit for bit.
func householderStepRef(ck []float64, col func(int) []float64, b []float64, k, q, n int, tol float64) bool {
	var norm float64
	for i := k; i < n; i++ {
		norm = math.Hypot(norm, ck[i])
	}
	if norm <= tol {
		for i := k; i < n; i++ {
			ck[i] = 0
		}
		return false
	}
	if ck[k] < 0 {
		norm = -norm
	}
	for i := k; i < n; i++ {
		ck[i] /= norm
	}
	ck[k] += 1
	for j := k + 1; j < q; j++ {
		cj := col(j)
		var s float64
		for i := k; i < n; i++ {
			s += ck[i] * cj[i]
		}
		s = -s / ck[k]
		for i := k; i < n; i++ {
			cj[i] += s * ck[i]
		}
	}
	var s float64
	for i := k; i < n; i++ {
		s += ck[i] * b[i]
	}
	s = -s / ck[k]
	for i := k; i < n; i++ {
		b[i] += s * ck[i]
	}
	ck[k] = -norm
	return true
}

// solveQRRef is solveQR over householderStepRef, with fresh buffers.
// columnTol and backSubstitute are shared: neither changed with the
// kernel.
func solveQRRef(a, b []float64, n, p int) (beta []float64, ok []bool) {
	if n == 0 {
		return nil, nil
	}
	cols := min(p, n)
	ok = make([]bool, p)
	col := func(j int) []float64 { return a[j*n : (j+1)*n] }
	tol := make([]float64, p)
	for j := range tol {
		tol[j] = columnTol(col(j))
	}
	for k := 0; k < cols; k++ {
		ok[k] = householderStepRef(col(k), col, b, k, p, n, tol[k])
	}
	beta = make([]float64, p)
	backSubstitute(col, b, beta, ok, p, cols)
	return beta, ok
}

// fitRef is Fit over solveQRRef.
func fitRef(xs [][]float64, y []float64, terms []int) (*Model, error) {
	n, p := len(xs), len(terms)+1
	if n == 0 || n != len(y) {
		return nil, ErrDimension
	}
	a := designMatrix(xs, terms)
	beta, ok := solveQRRef(a, append([]float64(nil), y...), n, p)
	m := &Model{Intercept: beta[0]}
	for j, t := range terms {
		if ok[j+1] {
			m.Coef = append(m.Coef, beta[j+1])
			m.Terms = append(m.Terms, t)
		}
	}
	return m, nil
}

// designMatrix assembles [1 X_terms] column-major, as Fit does.
func designMatrix(xs [][]float64, terms []int) []float64 {
	n := len(xs)
	a := make([]float64, n*(len(terms)+1))
	for i := 0; i < n; i++ {
		a[i] = 1
	}
	for j, t := range terms {
		for i, row := range xs {
			a[(j+1)*n+i] = row[t]
		}
	}
	return a
}

// Column kinds of kernelSystem. The degenerate kinds (constant, zero,
// collinear) take the norm <= tol path; the magnitude kinds push the
// norm chain and the reflector passes to the ends of the float64 range.
const (
	kindUniform = iota
	kindConstant
	kindZero
	kindCollinear
	kindHuge      // ~1e300
	kindTiny      // ~1e-300: squares underflow, so the tolerance is its floor
	kindSubnormal // a few ulps of the smallest subnormal
	kindWideRange // signed values with exponents spread over ±300
	kindMid       // ~1e±150: the largest scales whose tolerance stays finite
	numKinds
)

// kernelSystem draws an n-row, width-column system whose columns mix
// the kinds above, and a response correlated with the first column.
func kernelSystem(r *rng, n, width int) ([][]float64, []float64) {
	kinds := make([]int, width)
	for j := range kinds {
		kinds[j] = int(r.next() % numKinds)
		if j == 0 && kinds[j] == kindCollinear {
			kinds[j] = kindUniform
		}
	}
	scale := 1e150
	if r.next()%2 == 0 {
		scale = 1e-150
	}
	xs := make([][]float64, n)
	y := make([]float64, n)
	for i := range xs {
		row := make([]float64, width)
		for j, kind := range kinds {
			switch kind {
			case kindUniform:
				row[j] = 2*r.float() - 1
			case kindConstant:
				row[j] = 0.75
			case kindZero:
				row[j] = 0
			case kindCollinear:
				row[j] = 3*row[j-1] - 0.5
			case kindHuge:
				row[j] = (r.float() + 0.5) * 1e300
			case kindTiny:
				row[j] = (r.float() + 0.5) * 1e-300
			case kindSubnormal:
				row[j] = float64(1+r.next()%7) * math.SmallestNonzeroFloat64
			case kindWideRange:
				row[j] = (2*r.float() - 1) * math.Pow(10, float64(int(r.next()%601)-300))
			case kindMid:
				row[j] = (r.float() + 0.5) * scale
			}
		}
		xs[i] = row
		y[i] = 1 + 0.1*(r.float()-0.5)
		if width > 0 {
			y[i] += row[0]
		}
	}
	return xs, y
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameModel(a, b *Model) bool {
	if len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return sameBits([]float64{a.Intercept}, []float64{b.Intercept}) && sameBits(a.Coef, b.Coef)
}

// TestKernelMatchesOldArithmetic holds the elimination kernel to the
// pre-blocking arithmetic on seeded random systems: the factored matrix,
// the transformed response, the solution and the column mask of
// solveQR, and the models of Fit and Simplify, all bitwise. The widths
// run through every residue mod 4 of the trailing column count, some
// systems have fewer rows than columns (the truncated elimination), and
// the column kinds cover the degenerate path and magnitudes near 1e±300
// and subnormals.
func TestKernelMatchesOldArithmetic(t *testing.T) {
	r := rng(20261019)
	sc := new(fitScratch)
	for trial := 0; trial < 600; trial++ {
		width := trial % 13 // p = width+1: trailing widths 0..12 at step 0
		n := 1 + int(r.next()%48)
		if trial%5 == 0 {
			n = 1 + int(r.next()%uint64(width+1)) // n <= width < p
		}
		xs, y := kernelSystem(&r, n, width)
		terms := make([]int, width)
		for j := range terms {
			terms[j] = j
		}
		p := width + 1

		a, b := designMatrix(xs, terms), append([]float64(nil), y...)
		aRef, bRef := append([]float64(nil), a...), append([]float64(nil), b...)
		beta, ok := solveQR(a, b, n, p, sc)
		betaRef, okRef := solveQRRef(aRef, bRef, n, p)
		if !sameBits(a, aRef) || !sameBits(b, bRef) || !sameBits(beta, betaRef) {
			t.Fatalf("trial %d (n=%d p=%d): solveQR differs from the reference\nbeta %v\nref  %v", trial, n, p, beta, betaRef)
		}
		for j := range ok {
			if ok[j] != okRef[j] {
				t.Fatalf("trial %d (n=%d p=%d): column mask %v, reference %v", trial, n, p, ok, okRef)
			}
		}

		if width == 0 {
			continue
		}
		m, err := Fit(xs, y, terms)
		if err != nil {
			t.Fatalf("trial %d: Fit: %v", trial, err)
		}
		mRef, _ := fitRef(xs, y, terms)
		if !sameModel(m, mRef) {
			t.Fatalf("trial %d (n=%d p=%d): Fit %+v, reference %+v", trial, n, p, m, mRef)
		}
		got, want := Simplify(m, xs, y), simplifyNaive(mRef, xs, y, fitRef)
		if !sameModel(got, want) {
			t.Fatalf("trial %d (n=%d p=%d): Simplify %+v, reference %+v", trial, n, p, got, want)
		}
	}
}

// TestHouseholderStepExtremes runs single elimination steps with a zero
// tolerance, so that columns at 1e±300, subnormal and zero columns all
// reach the reflector passes instead of the degenerate path, and
// compares every column and the response bitwise with the reference.
func TestHouseholderStepExtremes(t *testing.T) {
	r := rng(5)
	for trial := 0; trial < 400; trial++ {
		n := 1 + int(r.next()%40)
		q := 1 + int(r.next()%12)
		xs, y := kernelSystem(&r, n, q)
		terms := make([]int, q)
		for j := range terms {
			terms[j] = j
		}
		// Drop the intercept column so every column is a drawn one.
		a := designMatrix(xs, terms)[n:]
		aRef, b, bRef := append([]float64(nil), a...), append([]float64(nil), y...), append([]float64(nil), y...)
		col := func(j int) []float64 { return a[j*n : (j+1)*n] }
		colRef := func(j int) []float64 { return aRef[j*n : (j+1)*n] }
		k := int(r.next() % uint64(min(n, q)))
		ok := householderStep(col(k), col, b, k, q, n, 0)
		okRef := householderStepRef(colRef(k), colRef, bRef, k, q, n, 0)
		if ok != okRef || !sameBits(a, aRef) || !sameBits(b, bRef) {
			t.Fatalf("trial %d (n=%d q=%d k=%d): step differs from the reference (ok %v, ref %v)", trial, n, q, k, ok, okRef)
		}
	}
}

// FuzzHypotStep holds columnNorm's inlined hypot body to math.Hypot bit
// for bit: for one step, columnNorm({p, q}) = Hypot(Hypot(0, p), q) =
// Hypot(p, q), and for a longer chain over {p, q, p, q}.
func FuzzHypotStep(f *testing.F) {
	const ratio = 0x1p-27 // q/p where q*q drops below 1's last bit
	for _, s := range [][2]float64{
		{0, 0}, {math.Copysign(0, -1), 0}, {0, math.Copysign(0, -1)},
		{math.SmallestNonzeroFloat64, 0}, {math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64},
		{0x1p-1022, 3 * math.SmallestNonzeroFloat64}, {1, math.SmallestNonzeroFloat64},
		{math.MaxFloat64, 0}, {math.MaxFloat64, math.MaxFloat64}, {math.MaxFloat64, 1},
		{math.Inf(1), 1}, {1, math.Inf(-1)}, {math.Inf(-1), math.NaN()}, {math.NaN(), 2}, {2, math.NaN()},
		{1, 1}, {-3.5, 3.5}, {1e300, 1e300}, {1e-300, -1e-300},
		{3.7084564308453e-310, 3.7084564308453e-310}, // x87 rounds this one twice
		{1, ratio}, {1, ratio * (1 + 0x1p-52)}, {1, ratio * (1 - 0x1p-53)}, {-7, 7 * ratio}, {0.1, 0.1 * ratio},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, p, q float64) {
		if got, want := columnNorm([]float64{p, q}), math.Hypot(p, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("columnNorm(%v, %v) = %v (%#x), math.Hypot = %v (%#x)",
				p, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		x := []float64{p, q, p, q}
		var want float64
		for _, v := range x {
			want = math.Hypot(want, v)
		}
		if got := columnNorm(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("columnNorm(%v) = %v (%#x), math.Hypot chain = %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
