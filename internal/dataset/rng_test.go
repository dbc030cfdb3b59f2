package dataset

import (
	"math"
	"testing"
)

// drawScale is 2⁵³, the number of distinct Float64 draws.
const drawScale = 1 << 53

// checkChanceBoundary requires t = Chance(p) to be the exact cut between
// the draws k (Float64 returns k·2⁻⁵³) that are below p and those that are
// not: k = t-1 is below p and k = t is not. Random draws almost never land
// on k = t, so this is the check that catches an off-by-one threshold.
func checkChanceBoundary(t *testing.T, p float64) {
	t.Helper()
	c := Chance(p)
	if c > drawScale {
		t.Fatalf("Chance(%v) = %d exceeds 2^53", p, c)
	}
	if c > 0 && !(float64(c-1)/drawScale < p) {
		t.Fatalf("Chance(%v) = %d: draw k=%d is not below p but Below accepts it", p, c, c-1)
	}
	if c < drawScale && float64(c)/drawScale < p {
		t.Fatalf("Chance(%v) = %d: draw k=%d is below p but Below rejects it", p, c, c)
	}
}

// TestChanceMatchesFloat64 pins the integer-threshold draw to the float
// comparison it replaces: at the boundary for probabilities on, just
// below and just above grid points k·2⁻⁵³, at the edges (0, 1, the 1+1e-9
// mix slack, the smallest subnormal, non-finite values), and over 1e5
// draws of two same-seed generators per probability.
func TestChanceMatchesFloat64(t *testing.T) {
	ps := []float64{0, 1, 1 + 1e-9, 0.02, math.SmallestNonzeroFloat64, -0.5,
		math.NaN(), math.Inf(1), math.Inf(-1), 0.3, 0.45, 0.999}
	for _, k := range []uint64{1, 2, 3, 1 << 20, 180143985094819, 1 << 52, 3 << 51, drawScale - 1} {
		g := float64(k) / drawScale
		ps = append(ps, math.Nextafter(g, 0), g, math.Nextafter(g, 2))
	}
	for _, p := range ps {
		checkChanceBoundary(t, p)
	}
	for _, tc := range []struct {
		p    float64
		want uint64
	}{
		{0, 0}, {1, drawScale}, {1 + 1e-9, drawScale}, {0.5, 1 << 52},
		{math.SmallestNonzeroFloat64, 1}, {math.NaN(), 0}, {-1, 0},
	} {
		if got := Chance(tc.p); got != tc.want {
			t.Errorf("Chance(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	for i, p := range ps {
		a, b := NewRNG(uint64(i)), NewRNG(uint64(i))
		c := Chance(p)
		for n := 0; n < 100_000; n++ {
			if got, want := a.Below(c), b.Float64() < p; got != want {
				t.Fatalf("p=%v draw %d: Below=%v, Float64()<p=%v", p, n, got, want)
			}
		}
	}
}

// FuzzChance checks the threshold boundary and a run of paired draws for
// arbitrary probabilities and seeds.
func FuzzChance(f *testing.F) {
	f.Add(uint64(1), 0.02)
	f.Add(uint64(2), 1+1e-9)
	f.Add(uint64(3), math.SmallestNonzeroFloat64)
	f.Add(uint64(4), math.Nextafter(0.5, 0))
	f.Add(uint64(5), math.NaN())
	f.Fuzz(func(t *testing.T, seed uint64, p float64) {
		checkChanceBoundary(t, p)
		a, b := NewRNG(seed), NewRNG(seed)
		c := Chance(p)
		for n := 0; n < 256; n++ {
			if got, want := a.Below(c), b.Float64() < p; got != want {
				t.Fatalf("p=%v seed %d draw %d: Below=%v, Float64()<p=%v", p, seed, n, got, want)
			}
		}
	})
}

// benchHits keeps the benchmarked draws observable.
var benchHits int

// BenchmarkRNGBelow times one Bernoulli draw as the trace generator makes
// it: an integer compare against a precomputed Chance threshold.
func BenchmarkRNGBelow(b *testing.B) {
	r, c := NewRNG(1), Chance(0.3)
	for i := 0; i < b.N; i++ {
		if r.Below(c) {
			benchHits++
		}
	}
}

// BenchmarkRNGFloat64Less is BenchmarkRNGBelow's baseline: the same draw
// converted to float64 and compared with the probability.
func BenchmarkRNGFloat64Less(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		if r.Float64() < 0.3 {
			benchHits++
		}
	}
}
