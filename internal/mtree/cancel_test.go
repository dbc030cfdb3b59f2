package mtree

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"specchar/internal/dataset"
)

// workerCounts exercises the serial path, the minimal pool, and
// oversubscribed pools.
var workerCounts = []int{1, 2, 4, 8}

// assertNoGoroutineLeak fails the test if the goroutine count does not
// settle back to (roughly) its pre-test baseline. Canceled stages must
// join all their workers before returning, so any durable growth is a
// leaked worker. The retry loop absorbs runtime-internal goroutines that
// are still winding down.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func optsWithWorkers(w int) Options {
	opts := DefaultOptions()
	opts.Workers = w
	return opts
}

func TestBuildContextPreCanceled(t *testing.T) {
	d := piecewiseDataset(4000, 1, 0.05)
	for _, w := range workerCounts {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		baseline := runtime.NumGoroutine()
		_, err := BuildContext(ctx, d, optsWithWorkers(w))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		assertNoGoroutineLeak(t, baseline)
	}
}

func TestBuildContextCancelMidInduction(t *testing.T) {
	// Large enough that induction takes well over the cancel delay at
	// every worker count.
	d := piecewiseDataset(60000, 2, 0.2)
	for _, w := range workerCounts {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := BuildContext(ctx, d, optsWithWorkers(w))
		elapsed := time.Since(start)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled or nil", w, err)
		}
		if err == nil {
			t.Logf("workers=%d: build outran the cancel (%v); cancellation not exercised", w, elapsed)
		}
		assertNoGoroutineLeak(t, baseline)
	}
}

func TestBuildContextDeadline(t *testing.T) {
	d := piecewiseDataset(60000, 3, 0.2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := BuildContext(ctx, d, optsWithWorkers(4))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded or nil", err)
	}
}

// TestPredictDatasetContextCancel runs every context-taking batch entry
// point, of the pointer tree and of its compiled form, under a canceled
// context at every worker count: each must return context.Canceled
// wrapped in its own diagnostic and join all of its workers.
func TestPredictDatasetContextCancel(t *testing.T) {
	d := piecewiseDataset(5000, 4, 0.05)
	tree, err := Build(d, optsWithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cols := d.Columns()
	for _, w := range workerCounts {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		baseline := runtime.NumGoroutine()
		tree.Opts.Workers = w
		cw := ctree.WithWorkers(w)
		for _, tc := range []struct {
			name string
			err  error
		}{
			{"tree PredictDatasetCheckedContext", errOf(tree.PredictDatasetCheckedContext(ctx, d))},
			{"tree ClassifyLeavesCheckedContext", errOf(tree.ClassifyLeavesCheckedContext(ctx, d))},
			{"compiled PredictDatasetCheckedContext", errOf(cw.PredictDatasetCheckedContext(ctx, d))},
			{"compiled PredictColumnsCheckedContext", errOf(cw.PredictColumnsCheckedContext(ctx, cols, d.Len()))},
			{"compiled ClassifyLeavesCheckedContext", errOf(cw.ClassifyLeavesCheckedContext(ctx, d))},
		} {
			if !errors.Is(tc.err, context.Canceled) || tc.err == context.Canceled {
				t.Errorf("%s workers=%d: err = %v, want a wrapped context.Canceled", tc.name, w, tc.err)
			}
		}
		assertNoGoroutineLeak(t, baseline)
	}
}

// Batch prediction must agree exactly with the per-sample reference at
// every worker count — chunks are pulled dynamically but write disjoint
// ranges, so the output is positionally deterministic.
func TestPredictDatasetContextMatchesPlain(t *testing.T) {
	d := piecewiseDataset(5000, 5, 0.05)
	tree, err := Build(d, optsWithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, d.Len())
	for i, s := range d.Samples {
		want[i] = tree.Predict(s.X)
	}
	for _, w := range workerCounts {
		tree.Opts.Workers = w
		got, err := tree.PredictDatasetCheckedContext(context.Background(), d)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prediction %d = %v, want %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestCrossValidateContextCancel(t *testing.T) {
	d := piecewiseDataset(3000, 6, 0.1)
	for _, w := range workerCounts {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		baseline := runtime.NumGoroutine()
		_, err := CrossValidateContext(ctx, d, 5, optsWithWorkers(w), 7)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		assertNoGoroutineLeak(t, baseline)
	}
}

func TestPermutationImportanceContextCancel(t *testing.T) {
	d := piecewiseDataset(2000, 8, 0.1)
	tree, err := Build(d, optsWithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		baseline := runtime.NumGoroutine()
		tree.Opts.Workers = w
		if _, err := tree.PermutationImportanceContext(ctx, d, 3, 9); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		assertNoGoroutineLeak(t, baseline)
	}
}

func TestEvaluateSplitsContextCancel(t *testing.T) {
	d := piecewiseDataset(2000, 10, 0.1)
	for _, w := range workerCounts {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		baseline := runtime.NumGoroutine()
		if _, err := EvaluateSplitsContext(ctx, d, optsWithWorkers(w)); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		assertNoGoroutineLeak(t, baseline)
	}
}

// Background-context entry points must behave exactly as before the
// context plumbing: no error, same results.
func TestContextVariantsBackgroundEquivalence(t *testing.T) {
	d := piecewiseDataset(1500, 11, 0.1)
	opts := optsWithWorkers(4)
	tree, err := BuildContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	p1 := must(tree.PredictDatasetCheckedContext(context.Background(), d))
	p2 := must(tree2.PredictDatasetCheckedContext(context.Background(), d))
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("BuildContext and Build disagree at sample %d: %v vs %v", i, p1[i], p2[i])
		}
	}
	cv1, err := CrossValidateContext(context.Background(), d, 4, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	cv2, err := CrossValidate(d, 4, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cv1.MeanMAE != cv2.MeanMAE || cv1.MeanRMSE != cv2.MeanRMSE {
		t.Errorf("CV disagree: %v vs %v", cv1, cv2)
	}

	// Appending a non-finite sample in memory (bypassing Append's
	// validation) makes induction hit linreg on NaN data; it must not
	// crash regardless of worker count — the historical behaviour is a
	// leaf-only tree because NaN attributes admit no split.
	bad := dataset.New(d.Schema)
	bad.Samples = append(bad.Samples, d.Samples...)
	for i := 0; i < 100; i++ {
		bad.Samples = append(bad.Samples, dataset.Sample{X: []float64{0.3, 0.3}, Y: 1.6})
	}
	if _, err := BuildContext(context.Background(), bad, opts); err != nil {
		t.Fatalf("in-memory dataset build: %v", err)
	}
}
