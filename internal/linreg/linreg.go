// Package linreg implements multivariate least-squares linear regression
// used for the leaf models of the M5' model tree.
//
// The solver is a Householder QR factorization with implicit column
// degeneracy handling: columns whose diagonal R entry collapses below a
// tolerance are treated as linearly dependent and receive a zero
// coefficient, which is exactly the behaviour needed when a tree leaf's
// samples have a constant attribute.
package linreg

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
)

// ErrDimension is returned when the design matrix and response disagree in
// shape or the system has no rows.
var ErrDimension = errors.New("linreg: dimension mismatch")

// Model is a fitted linear model y = Intercept + sum_j Coef[j] * x[Terms[j]].
//
// Terms holds the column indices (into the caller's attribute space) that
// participate in the model, so a model can be fitted on a subset of
// attributes and still evaluated against full-width sample vectors.
type Model struct {
	Intercept float64
	Coef      []float64 // parallel to Terms
	Terms     []int     // attribute indices used by the model
}

// Predict evaluates the model on a full-width attribute vector.
func (m *Model) Predict(x []float64) float64 {
	y := m.Intercept
	for j, t := range m.Terms {
		y += m.Coef[j] * x[t]
	}
	return y
}

// NumTerms returns the number of non-intercept terms.
func (m *Model) NumTerms() int { return len(m.Terms) }

// Equation renders the model in the paper's style, e.g.
// "CPI = 0.53 + 4.73*L1DMiss - 0.198*Store", using names to label terms.
func (m *Model) Equation(response string, names []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s = %.4g", response, m.Intercept)
	for j, t := range m.Terms {
		c := m.Coef[j]
		name := fmt.Sprintf("x%d", t)
		if t >= 0 && t < len(names) {
			name = names[t]
		}
		if c < 0 {
			fmt.Fprintf(&b, " - %.4g*%s", -c, name)
		} else {
			fmt.Fprintf(&b, " + %.4g*%s", c, name)
		}
	}
	return b.String()
}

// Fit solves the least-squares problem min ||y - [1 X_terms] beta|| over the
// given rows, where X_terms selects the columns listed in terms from each
// row of xs. An intercept is always included. Rows of xs must all be at
// least as wide as the largest index in terms.
//
// Degenerate columns (constant, or linear combinations of earlier columns)
// get coefficient zero rather than failing, and are removed from the
// returned model's term list.
func Fit(xs [][]float64, y []float64, terms []int) (*Model, error) {
	n := len(xs)
	if n == 0 || n != len(y) {
		return nil, ErrDimension
	}
	p := len(terms) + 1 // +1 for intercept
	// The design matrix is stored column-major: the QR factorization
	// walks columns (norms, reflector formation and application), so a
	// column-major layout turns every inner loop into a contiguous
	// stride-1 pass where the old row-major layout touched one cache
	// line per element. The arithmetic is untouched — identical ops in
	// identical order — so coefficients are bit-for-bit unchanged. The
	// matrix and the solver's working vectors come from a pool: tree
	// induction calls Fit thousands of times on small systems and these
	// buffers dominated its allocation profile. Every cell is written
	// during assembly, so the buffer is not zeroed first.
	sc := fitPool.Get().(*fitScratch)
	defer fitPool.Put(sc)
	a := sc.floats(&sc.a, n*p)
	for i := 0; i < n; i++ {
		a[i] = 1 // intercept column
	}
	for j, t := range terms {
		col := a[(j+1)*n : (j+2)*n]
		for i, row := range xs {
			if t >= len(row) {
				return nil, fmt.Errorf("linreg: term index %d out of range for row of width %d", t, len(row))
			}
			col[i] = row[t]
		}
	}
	b := sc.floats(&sc.b, n)
	copy(b, y)

	beta, ok := solveQR(a, b, n, p, sc)
	if beta == nil {
		return nil, errors.New("linreg: singular system with no rows")
	}
	model := &Model{Intercept: beta[0]}
	for j, t := range terms {
		if !ok[j+1] {
			continue // dropped degenerate column
		}
		model.Coef = append(model.Coef, beta[j+1])
		model.Terms = append(model.Terms, t)
	}
	return model, nil
}

// fitScratch carries the reusable working set of one Fit call: the design
// matrix, the response copy, and the solver's solution/mask/tolerance
// vectors. Nothing in it escapes — the returned Model copies the entries
// it keeps — so the whole set can go back to the pool on return.
type fitScratch struct {
	a, b, beta, tol []float64
	ok              []bool
}

var fitPool = sync.Pool{New: func() any { return new(fitScratch) }}

// floats resizes one of the scratch's float buffers to n without zeroing;
// callers overwrite every element they read.
func (sc *fitScratch) floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// FitConstant returns the degenerate model y = mean(y), used for leaves
// where regression is not worthwhile.
func FitConstant(y []float64) *Model {
	var sum float64
	for _, v := range y {
		sum += v
	}
	m := &Model{}
	if len(y) > 0 {
		m.Intercept = sum / float64(len(y))
	}
	return m
}

// columnTol is the degeneracy tolerance for one design-matrix column:
// its Euclidean norm scaled down by 1e-10, with a floor for the
// all-zero column.
func columnTol(col []float64) float64 {
	var s float64
	for _, v := range col {
		s += v * v
	}
	t := math.Sqrt(s) * 1e-10
	if t == 0 {
		t = 1e-12
	}
	return t
}

// householderStep performs one Householder elimination step: it forms
// the reflector for column ck over rows k..n-1 and applies it to the
// trailing columns col(k+1)..col(q-1) and to b, leaving ck holding the
// reflector below the diagonal and the R diagonal entry (-norm, the
// Householder sign convention) at ck[k]. A column whose norm falls at
// or below tol is degenerate: it is zeroed below the diagonal so back
// substitution can skip it, and the step reports false without touching
// anything else.
//
// This is the single implementation of the elimination arithmetic;
// solveQR and the Simplify prefix-reuse engine both call it, so a trial
// refit that resumes from a cached factorization prefix executes
// literally the same instruction sequence a from-scratch factorization
// would — the foundation of the bit-for-bit equivalence contract.
//
// The reflector is applied to the trailing columns and b four targets
// per pass (b is the last target), which keeps four independent add
// chains in flight; each dot product is still summed in ascending row
// order, so every accumulator sees the same operations as a
// column-at-a-time pass (DESIGN.md §10, "The elimination kernel").
func householderStep(ck []float64, col func(int) []float64, b []float64, k, q, n int, tol float64) bool {
	v := ck[k:n]
	norm := columnNorm(v)
	if norm <= tol {
		clear(v)
		return false
	}
	if v[0] < 0 {
		norm = -norm
	}
	for i := range v {
		v[i] /= norm
	}
	v[0] += 1
	// target j in k+1..q: rows k..n-1 of trailing column j, or of b for
	// j == q, resliced to len(v) so the row loops carry no bounds checks.
	target := func(j int) []float64 {
		c := b
		if j < q {
			c = col(j)
		}
		return c[k:n][:len(v)]
	}
	j := k + 1
	for ; j+3 <= q; j += 4 {
		c0, c1, c2, c3 := target(j), target(j+1), target(j+2), target(j+3)
		var s0, s1, s2, s3 float64
		for i, vi := range v {
			s0 += vi * c0[i]
			s1 += vi * c1[i]
			s2 += vi * c2[i]
			s3 += vi * c3[i]
		}
		s0 = -s0 / v[0]
		s1 = -s1 / v[0]
		s2 = -s2 / v[0]
		s3 = -s3 / v[0]
		for i, vi := range v {
			c0[i] += s0 * vi
			c1[i] += s1 * vi
			c2[i] += s2 * vi
			c3[i] += s3 * vi
		}
	}
	for ; j <= q; j++ {
		c := target(j)
		var s float64
		for i, vi := range v {
			s += vi * c[i]
		}
		s = -s / v[0]
		for i, vi := range v {
			c[i] += s * vi
		}
	}
	v[0] = -norm
	return true
}

// columnNorm returns the Euclidean norm of x as the chain
// norm = math.Hypot(norm, x[i]) over ascending i, bit for bit. The
// body is math's portable hypot, written into the loop so the chain
// stays in registers: the amd64 math.Hypot is an assembly routine that
// takes its operands and result through the stack on every step, and
// its instruction sequence (divide, multiply, add 1, square root,
// multiply) is exactly this one. Non-finite operands go to math.Hypot
// itself for its special cases. hypot's Abs of its first operand is
// left out: every norm the chain produces is +0, positive, +Inf or NaN,
// for which Abs changes nothing the branches look at, and dropping it
// takes a round trip through an integer register off the chain.
//
// On 386, math.Hypot is x87 assembly that rounds through extended
// precision, and a subnormal result can differ from this body in the
// last bit, so there the chain stays on math.Hypot.
func columnNorm(x []float64) float64 {
	var norm float64
	if runtime.GOARCH == "386" {
		for _, xi := range x {
			norm = math.Hypot(norm, xi)
		}
		return norm
	}
	for _, xi := range x {
		p, q := norm, math.Abs(xi)
		if !(p <= math.MaxFloat64 && q <= math.MaxFloat64) {
			norm = math.Hypot(norm, xi)
			continue
		}
		if p < q {
			p, q = q, p
		}
		if p == 0 {
			norm = 0
			continue
		}
		q = q / p
		norm = p * math.Sqrt(1+q*q)
	}
	return norm
}

// backSubstitute solves the upper-triangular system left behind by the
// elimination steps: col(j) addresses factored column j (rows 0..j hold
// R entries), b is the transformed response, and dead columns (ok
// false, or at/beyond cols when the system is wider than tall) get
// coefficient zero.
func backSubstitute(col func(int) []float64, b, beta []float64, ok []bool, q, cols int) {
	for i := range beta {
		beta[i] = 0
	}
	for k := cols - 1; k >= 0; k-- {
		if !ok[k] {
			beta[k] = 0
			continue
		}
		s := b[k]
		for j := k + 1; j < q; j++ {
			s -= col(j)[k] * beta[j]
		}
		beta[k] = s / col(k)[k]
	}
}

// solveQR factors the n-by-p column-major matrix a (column j is
// a[j*n:(j+1)*n]) with Householder reflections, solving a*beta = b in
// the least-squares sense. It returns the solution and a mask of
// columns that were numerically independent; dependent columns get beta
// 0 and ok false. The returned slices live in sc and are only valid
// until the scratch is pooled again.
func solveQR(a, b []float64, n, p int, sc *fitScratch) (beta []float64, ok []bool) {
	if n == 0 {
		return nil, nil
	}
	cols := p
	if cols > n {
		cols = n
	}
	if cap(sc.ok) < p {
		sc.ok = make([]bool, p)
	}
	ok = sc.ok[:p]
	for i := range ok {
		ok[i] = false
	}
	col := func(j int) []float64 { return a[j*n : (j+1)*n] }
	// Column norms for the degeneracy tolerance.
	tol := sc.floats(&sc.tol, p)
	for j := 0; j < p; j++ {
		tol[j] = columnTol(col(j))
	}
	for k := 0; k < cols; k++ {
		ok[k] = householderStep(col(k), col, b, k, p, n, tol[k])
	}
	beta = sc.floats(&sc.beta, p)
	backSubstitute(col, b, beta, ok, p, cols)
	return beta, ok
}

// MAE returns the mean absolute residual of the model over the rows.
func MAE(m *Model, xs [][]float64, y []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for i, row := range xs {
		s += math.Abs(y[i] - m.Predict(row))
	}
	return s / float64(len(xs))
}

// CompensatedError returns the M5 error estimate of a model on its own
// training rows: the mean absolute residual multiplied by (n+v)/(n-v),
// where v counts the model's parameters. The multiplier penalizes models
// with many terms relative to the observations that support them
// (Quinlan 1992, Section 2).
func CompensatedError(m *Model, xs [][]float64, y []float64) float64 {
	n := float64(len(xs))
	v := float64(m.NumTerms() + 1)
	mae := MAE(m, xs, y)
	if n <= v {
		// Fewer observations than parameters: maximally penalized.
		return mae * 1e9
	}
	return mae * (n + v) / (n - v)
}

// Simplify greedily drops terms from the model while doing so does not
// increase the compensated error on the training rows, re-fitting after
// each removal. This is M5's model simplification step; it is what keeps
// most leaf models in the paper down to a handful of terms (or constants).
//
// The refits ride a prefix-reusing factorization engine: dropping term d
// leaves the design matrix's leading columns 0..d unchanged, so the trial
// factorization shares the reference factorization's first d+1 Householder
// steps and only recomputes the suffix. Both paths run the shared
// householderStep arithmetic, so the returned model is bit-for-bit the one
// a from-scratch Fit per trial would produce (the engine falls back to
// exactly that loop when the system shape rules out prefix sharing).
func Simplify(m *Model, xs [][]float64, y []float64) *Model {
	best := m
	bestErr := CompensatedError(best, xs, y)
	if len(m.Terms) == 0 {
		return best
	}
	eng := simplifyPool.Get().(*simplifyEngine)
	defer simplifyPool.Put(eng)
	// The cached tolerances belong to the last call's rows.
	eng.icptTol = 0
	clear(eng.termTol)
	// One reusable candidate-term buffer for the fallback path: Fit copies
	// the entries it keeps into the model, so it can be rewritten between
	// trials.
	trial := make([]int, 0, len(m.Terms))
	for {
		improved := false
		fast := len(best.Terms) > 1 && eng.init(xs, y, best.Terms)
		for drop := 0; drop < len(best.Terms); drop++ {
			var cand *Model
			switch {
			case len(best.Terms) == 1:
				cand = FitConstant(y)
			case fast:
				cand = eng.fitDropped(drop)
			default:
				trial = trial[:0]
				trial = append(trial, best.Terms[:drop]...)
				trial = append(trial, best.Terms[drop+1:]...)
				var err error
				cand, err = Fit(xs, y, trial)
				if err != nil {
					continue
				}
			}
			if e := CompensatedError(cand, xs, y); e <= bestErr {
				best, bestErr = cand, e
				improved = true
				break // restart the scan with the smaller model
			}
		}
		if !improved {
			return best
		}
	}
}

// simplifyEngine caches one reference QR factorization per greedy round of
// Simplify and derives each leave-one-term-out trial fit from it.
//
// The reference design matrix (intercept + every term of the current model,
// column-major) is factored lazily: advance(d) applies Householder steps
// up to and including step d. Dropping term d deletes column d+1, so a
// trial's columns 0..d coincide with the reference's; identical columns
// under identical tolerances yield identical reflectors, which transform
// the shared trailing columns and the response exactly as the reference
// steps did. fitDropped therefore copies the reference's post-step-d state
// of columns d+2.. into a workspace, re-eliminates only the suffix, and
// back-substitutes reading reference columns for the shared prefix. Trials
// are visited in ascending drop order, so the lazy reference advance never
// recomputes a step and each of its p steps runs at most once per round.
type simplifyEngine struct {
	n, p  int       // rows; reference columns (terms + intercept)
	terms []int     // current model's terms (aliases the caller's slice)
	a     []float64 // reference matrix, column-major, len n*p
	b     []float64 // reference response, transformed in place as steps run
	tol   []float64 // per-column tolerance from the unfactored matrix
	ok    []bool    // reference step outcomes, valid for steps < step
	step  int       // number of reference Householder steps applied

	// A column's tolerance depends only on its term (or on the row count,
	// for the intercept), so it is computed once per Simplify call, in the
	// first round that gathers the column: termTol by term index, 0 until
	// computed (columnTol is never 0).
	icptTol float64
	termTol []float64

	ta   []float64 // trial workspace matrix (suffix columns only)
	tb   []float64 // trial response
	tok  []bool    // trial step outcomes
	beta []float64 // trial solution
}

var simplifyPool = sync.Pool{New: func() any { return new(simplifyEngine) }}

// grow resizes a float buffer without zeroing; callers overwrite every
// element they read.
func (e *simplifyEngine) grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func (e *simplifyEngine) col(j int) []float64  { return e.a[j*e.n : (j+1)*e.n] }
func (e *simplifyEngine) tcol(j int) []float64 { return e.ta[j*e.n : (j+1)*e.n] }

// init assembles the reference system for one greedy round. It reports
// false when prefix sharing cannot reproduce Fit exactly — no rows, an
// under-determined system (n < p, where solveQR's truncated elimination
// takes over), or a term index past a row's width (where Fit errors and
// the trial must be skipped) — and the caller falls back to per-trial Fit.
func (e *simplifyEngine) init(xs [][]float64, y []float64, terms []int) bool {
	n := len(xs)
	p := len(terms) + 1
	if n == 0 || n != len(y) || n < p {
		return false
	}
	e.n, e.p, e.terms, e.step = n, p, terms, 0
	a := e.grow(&e.a, n*p)
	for i := 0; i < n; i++ {
		a[i] = 1 // intercept column
	}
	tol := e.grow(&e.tol, p)
	if e.icptTol == 0 {
		e.icptTol = columnTol(a[:n])
	}
	tol[0] = e.icptTol
	for j, t := range terms {
		col := a[(j+1)*n : (j+2)*n]
		for i, row := range xs {
			if t >= len(row) {
				return false
			}
			col[i] = row[t]
		}
		if t >= len(e.termTol) {
			e.termTol = append(e.termTol, make([]float64, t+1-len(e.termTol))...)
		}
		if e.termTol[t] == 0 {
			e.termTol[t] = columnTol(col)
		}
		tol[j+1] = e.termTol[t]
	}
	copy(e.grow(&e.b, n), y)
	if cap(e.ok) < p {
		e.ok = make([]bool, p)
	}
	e.ok = e.ok[:p]
	return true
}

// advance applies reference Householder steps through step d.
func (e *simplifyEngine) advance(d int) {
	for e.step <= d {
		k := e.step
		e.ok[k] = householderStep(e.col(k), e.col, e.b, k, e.p, e.n, e.tol[k])
		e.step = k + 1
	}
}

// fitDropped fits the model with term d removed, reusing the reference
// factorization's first d+1 steps. Requires init to have returned true.
func (e *simplifyEngine) fitDropped(d int) *Model {
	n, q := e.n, e.p-1 // trial column count: one term fewer
	e.advance(d)

	// Trial columns 0..d are the reference columns (final through row d);
	// trial column j > d starts as reference column j+1 after step d.
	col := func(j int) []float64 {
		if j <= d {
			return e.col(j)
		}
		return e.tcol(j)
	}
	e.grow(&e.ta, q*n)
	for j := d + 1; j < q; j++ {
		copy(e.tcol(j), e.col(j+1))
	}
	tb := e.grow(&e.tb, n)
	copy(tb, e.b)
	if cap(e.tok) < q {
		e.tok = make([]bool, q)
	}
	tok := e.tok[:q]
	copy(tok, e.ok[:d+1])
	for k := d + 1; k < q; k++ {
		// Trial column k past the drop point is reference column k+1, so
		// it inherits that column's tolerance.
		tok[k] = householderStep(col(k), col, tb, k, q, n, e.tol[k+1])
	}
	beta := e.grow(&e.beta, q)
	backSubstitute(col, tb, beta, tok, q, q)

	m := &Model{Intercept: beta[0]}
	jj := 1
	for idx, t := range e.terms {
		if idx == d {
			continue
		}
		if tok[jj] {
			m.Coef = append(m.Coef, beta[jj])
			m.Terms = append(m.Terms, t)
		}
		jj++
	}
	return m
}
