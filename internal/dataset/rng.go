package dataset

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64)
// used everywhere randomness is needed so that every experiment in the
// reproduction is bit-for-bit repeatable from its seed.
//
// We implement our own rather than depending on math/rand so that the
// stream is stable across Go releases (math/rand's top-level functions and
// shuffling have changed behaviour between versions).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dataset: Intn requires n > 0")
	}
	// A plain modulo of 64 random bits: its bias toward small values is
	// at most n/2^64, negligible for our n. Every generated dataset
	// depends on this exact mapping.
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, generated by the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	// Box-Muller; discard the second variate for simplicity.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)), the right-skewed distribution
// used for event-density dispersion in the workload generator.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed value with the given
// mean.
func (r *RNG) Exponential(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Fork returns an independent generator derived from this one, for
// splitting a seed across parallel sub-streams (one per benchmark, say)
// without correlating them.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xA5A5A5A55A5A5A5A)
}
