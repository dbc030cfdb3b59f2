package pmu

import (
	"testing"

	"specchar/internal/dataset"
)

// BenchmarkMultiplexerSample times turning one full rotation of window
// counts (Windows() windows of 2048 instructions, the suites' window
// length) into a model sample, as suite generation does once per sample.
func BenchmarkMultiplexerSample(b *testing.B) {
	m := NewMultiplexer()
	rng := dataset.NewRNG(1)
	windows := make([]Counts, m.Windows())
	for i := range windows {
		w := &windows[i]
		w.Instructions = 2048
		w.Cycles = 2048 * (0.5 + rng.Float64())
		for e := range w.Ev {
			w.Ev[e] = float64(rng.Intn(600))
		}
	}
	if len(windows) != 10 {
		b.Fatalf("rotation has %d windows, want 10", len(windows))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.Sample(windows, i, "bench")
		if err != nil {
			b.Fatal(err)
		}
		benchSample = s
	}
}

// benchSample keeps the benchmarked samples observable.
var benchSample dataset.Sample
