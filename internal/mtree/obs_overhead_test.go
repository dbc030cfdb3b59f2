package mtree

import (
	"context"
	"testing"

	"specchar/internal/obs"
)

// disabledObsSequence is the full per-stage instrumentation sequence a
// pipeline stage pays when no recorder is attached: context lookup, span
// start with attributes, row/attr updates, counter and gauge touches, and
// span end — all hitting the nil-receiver fast paths.
func disabledObsSequence(ctx context.Context) {
	rec := obs.FromContext(ctx)
	sctx, span := rec.StartSpan(ctx, "mtree.build", obs.A("rows", 1000), obs.A("workers", 4))
	_, child := rec.StartSpan(sctx, "mtree.build.grow")
	child.End()
	span.SetRows(1000)
	span.SetAttr("leaves", 8)
	rec.Counter("specchar_pool_lifted_forks_total").Add(1)
	rec.Gauge("specchar_tree_leaves").Set(8)
	span.End()
}

// TestDisabledRecorderOverhead bounds the cost of the no-op observability
// path: the complete disabled instrumentation sequence of a stage must
// cost under 2% of the cheapest stage it wraps. Comparing the sequence's
// own ns/op against real Build/batch-predict ns/op is far more stable
// across loaded CI machines than timing two full pipeline variants A/B.
func TestDisabledRecorderOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped with -short")
	}
	ctx := context.Background() // no recorder: the disabled path
	d := piecewiseDataset(2000, 1, 0.05)

	obsCost := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			disabledObsSequence(ctx)
		}
	})

	buildCost := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildContext(ctx, d, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})

	tree, err := BuildContext(ctx, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := tree.CompileContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	predictCost := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ctree.PredictDatasetCheckedContext(ctx, d); err != nil {
				b.Fatal(err)
			}
		}
	})

	o, bu, p := obsCost.NsPerOp(), buildCost.NsPerOp(), predictCost.NsPerOp()
	t.Logf("disabled obs sequence: %d ns/op; Build: %d ns/op; batch predict: %d ns/op", o, bu, p)
	// One sequence per stage invocation; 50x headroom == the 2% budget.
	if o*50 > bu {
		t.Errorf("disabled obs sequence (%d ns) exceeds 2%% of Build (%d ns)", o, bu)
	}
	if o*50 > p {
		t.Errorf("disabled obs sequence (%d ns) exceeds 2%% of batch predict (%d ns)", o, p)
	}
}
