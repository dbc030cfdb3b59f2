package uarch

import (
	"testing"

	"specchar/internal/dataset"
	"specchar/internal/trace"
)

// benchPhases are four phases in the style of the suites' archetypes
// (cache-resident compute, TLB-bound, memory-bound, streaming), so the
// benchmarks below see hits and misses at every level of the hierarchy.
func benchPhases() []trace.Phase {
	return []trace.Phase{
		{
			Name: "compute", LoadFrac: 0.26, StoreFrac: 0.1, BranchFrac: 0.16, MulFrac: 0.04,
			DataFootprint: 64 << 10, SeqFrac: 0.5, HotFrac: 0.85,
			CodeFootprint: 4 << 10, BranchEntropy: 0.04, ILP: 2.6,
			StoreAliasRate: 0.05, PartialOverlapFrac: 0.2,
		},
		{
			Name: "tlb-bound", LoadFrac: 0.34, StoreFrac: 0.1, BranchFrac: 0.12,
			DataFootprint: 512 << 10, PageSpread: 2048, SeqFrac: 0.25, HotFrac: 0.9,
			CodeFootprint: 8 << 10, BranchEntropy: 0.15, ILP: 1.6,
		},
		{
			Name: "mem-bound", LoadFrac: 0.36, StoreFrac: 0.08, BranchFrac: 0.14,
			DataFootprint: 64 << 20, SeqFrac: 0.05, HotFrac: 0.94,
			CodeFootprint: 8 << 10, BranchEntropy: 0.2, ILP: 1.2,
		},
		{
			Name: "stream", LoadFrac: 0.3, StoreFrac: 0.12, BranchFrac: 0.08, SIMDFrac: 0.2,
			DataFootprint: 32 << 20, SeqFrac: 0.96, HotFrac: 0.9, AccessSize: 16,
			CodeFootprint: 4 << 10, BranchEntropy: 0.03, ILP: 2, MisalignRate: 0.02,
		},
	}
}

// phaseAddrs replays benchPhases and returns the data addresses of their
// loads and stores, 1<<14 per phase, concatenated in phase order.
func phaseAddrs(b *testing.B) []uint64 {
	b.Helper()
	const perPhase = 1 << 14
	var addrs []uint64
	for i, p := range benchPhases() {
		g, err := trace.NewGenerator(p, dataset.NewRNG(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		for target := len(addrs) + perPhase; len(addrs) < target; {
			if op := g.Next(); op.Kind == trace.Load || op.Kind == trace.Store {
				addrs = append(addrs, op.Addr)
			}
		}
	}
	return addrs
}

// replay times access over a warm structure, cycling through addrs, and
// reports the hit ratio so the geometry's regime is visible.
func replay(b *testing.B, addrs []uint64, access func(uint64) bool) {
	for _, a := range addrs {
		access(a)
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if access(addrs[i%len(addrs)]) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkCacheAccess replays the phases' data addresses through the
// default L1D and L2 geometries.
func BenchmarkCacheAccess(b *testing.B) {
	addrs := phaseAddrs(b)
	cfg := DefaultConfig()
	for _, geo := range []struct {
		name       string
		size, ways int
	}{
		{"L1D", cfg.L1DSize, cfg.L1DWays},
		{"L2", cfg.L2Size, cfg.L2Ways},
	} {
		b.Run(geo.name, func(b *testing.B) {
			c, err := NewCache(geo.size, geo.ways, cfg.LineBytes)
			if err != nil {
				b.Fatal(err)
			}
			replay(b, addrs, c.Access)
		})
	}
}

// BenchmarkTLBAccess replays the phases' data addresses through the
// default DTLB.
func BenchmarkTLBAccess(b *testing.B) {
	addrs := phaseAddrs(b)
	cfg := DefaultConfig()
	t, err := NewTLB(cfg.DTLBEntries, cfg.DTLBWays, cfg.PageBytes)
	if err != nil {
		b.Fatal(err)
	}
	replay(b, addrs, t.Access)
}

// BenchmarkCoreRun times Core.Run per simulated op, generation included,
// on each phase after preload and warm-up, in 2048-op windows as suite
// generation runs them.
func BenchmarkCoreRun(b *testing.B) {
	const window = 2048
	for i, p := range benchPhases() {
		b.Run(p.Name, func(b *testing.B) {
			c, err := NewCore(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			g, err := trace.NewGenerator(p, dataset.NewRNG(uint64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			c.Preload(g.DataRegion())
			c.PreloadCode(g.CodeRegion())
			c.Run(g, 30000)
			b.ResetTimer()
			for n := b.N; n > 0; n -= window {
				c.Run(g, min(n, window))
			}
		})
	}
}
