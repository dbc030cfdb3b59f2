package trace

import (
	"testing"

	"specchar/internal/dataset"
)

// BenchmarkGeneratorNext times one op of a phase that takes every branch
// of the generator: all op kinds, sequential, hot and roaming addresses,
// misalignment, store aliasing with partial overlap, and FP assists.
func BenchmarkGeneratorNext(b *testing.B) {
	g, err := NewGenerator(Phase{
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.14, MulFrac: 0.03, DivFrac: 0.01, SIMDFrac: 0.1,
		FpAssistRate:  0.01,
		DataFootprint: 8 << 20, SeqFrac: 0.4, HotFrac: 0.9, PageSpread: 4096,
		MisalignRate: 0.02, StoreAliasRate: 0.1, PartialOverlapFrac: 0.2,
		CodeFootprint: 16 << 10, BranchEntropy: 0.1,
	}, dataset.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOp = g.Next()
	}
}

// benchOp keeps the benchmarked ops observable.
var benchOp Op
