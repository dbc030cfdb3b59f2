package suites

// Exploratory harness: prints the trees induced from freshly generated
// suite data. Run with:
//
//	go test ./internal/suites -run Explore -v -explore
//
// It is skipped by default; the assertions that matter live in
// suites_test.go and in the top-level experiment tests.

import (
	"context"
	"flag"
	"slices"
	"testing"

	"specchar/internal/mtree"
)

var exploreFlag = flag.Bool("explore", false, "print induced model trees for manual inspection")

func TestExploreTrees(t *testing.T) {
	if !*exploreFlag {
		t.Skip("pass -explore to print trees")
	}
	for _, s := range []*Suite{CPU2006(), OMP2001()} {
		opts := DefaultGenOptions()
		d, err := Generate(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := d.Summary()
		t.Logf("%s: %d samples, CPI mean %.3f sd %.3f min %.3f max %.3f",
			s.Name, d.Len(), sum.Mean, sum.StdDev, sum.Min, sum.Max)
		opts2 := mtree.DefaultOptions()
		opts2.MinLeaf = 35
		cands, err := mtree.EvaluateSplitsContext(context.Background(), d, opts2)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cands {
			if i >= 12 {
				break
			}
			t.Logf("  root candidate %d: %-10s thr=%.6g SDR=%.4f", i+1, c.Name, c.Threshold, c.SDR)
		}
		tree, err := mtree.Build(d, opts2)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s tree (%d leaves, depth %d):\n%s", s.Name, tree.NumLeaves(), tree.Depth(), tree.Render())
		t.Logf("models:\n%s", tree.RenderModels())
		t.Logf("%s", tree.RenderSplitSummary())
		for _, b := range s.Benchmarks {
			bd := d.FilterLabel(b.Name)
			bs, _ := bd.Summary()
			mean := func(name string) float64 {
				j := slices.Index(bd.Schema.Attributes, name)
				var sum float64
				for _, smp := range bd.Samples {
					sum += smp.X[j]
				}
				return sum / float64(bd.Len())
			}
			t.Logf("  %-18s n=%4d CPI %.3f | Olp %.4f StA %.4f Dtlb %.4f L2 %.4f L1D %.4f SIMD %.3f Store %.3f MisprBr %.4f Split %.4f",
				b.Name, bd.Len(), bs.Mean, mean("LdBlkOlp"), mean("LdBlkStA"), mean("DtlbMiss"),
				mean("L2Miss"), mean("L1DMiss"), mean("SIMD"), mean("Store"), mean("MisprBr"), mean("SplitLoad"))
		}
	}
}
