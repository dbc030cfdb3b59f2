//go:build faultinject

package mtree

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"specchar/internal/faultinject"
	"specchar/internal/robust"
)

// An injected panic on an induction worker must come back as a clean,
// stack-bearing error — the process must not crash and the error must
// carry enough to debug the panic.
func TestInjectedBuildWorkerPanic(t *testing.T) {
	defer faultinject.Deactivate()
	faultinject.Activate(1, faultinject.Fault{Site: "mtree.build.worker", OnCall: 1, Panic: "induction worker down"})
	d := piecewiseDataset(20000, 1, 0.1)
	_, err := BuildContext(context.Background(), d, optsWithWorkers(4))
	if err == nil {
		t.Fatal("build succeeded despite injected worker panic")
	}
	var pe *robust.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a contained *robust.PanicError", err)
	}
	if !strings.Contains(pe.Error(), "induction worker down") {
		t.Errorf("panic message lost: %v", pe)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("panic stack missing: %q", pe.Stack)
	}
}

// An injected error on an induction worker fails the build with that
// error, siblings cancel, and no goroutine leaks.
func TestInjectedBuildWorkerError(t *testing.T) {
	defer faultinject.Deactivate()
	want := errors.New("injected worker failure")
	faultinject.Activate(1, faultinject.Fault{Site: "mtree.build.worker", OnCall: 1, Err: want})
	d := piecewiseDataset(20000, 2, 0.1)
	_, err := BuildContext(context.Background(), d, optsWithWorkers(4))
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want injected failure", err)
	}
}

// An injected panic in a compiled batch-prediction chunk is contained.
func TestInjectedPredictChunkPanic(t *testing.T) {
	defer faultinject.Deactivate()
	d := piecewiseDataset(5000, 3, 0.1)
	tree, err := Build(d, optsWithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(1, faultinject.Fault{Site: "mtree.predict.chunk", OnCall: 1, Panic: "chunk scorer down"})
	_, err = ctree.WithWorkers(4).PredictDatasetCheckedContext(context.Background(), d)
	var pe *robust.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a contained *robust.PanicError", err)
	}
}

// An artificially slow prediction worker (delay injection) still observes
// cancellation promptly at its next chunk boundary.
func TestInjectedSlowWorkerObservesCancel(t *testing.T) {
	defer faultinject.Deactivate()
	d := piecewiseDataset(50000, 4, 0.1)
	tree, err := Build(d, optsWithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(1, faultinject.Fault{Site: "mtree.predict.chunk", DelayMilli: 20})
	ctree = ctree.WithWorkers(4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = ctree.PredictDatasetCheckedContext(ctx, d)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 25 chunks × 20ms serial would be ~500ms; a prompt cancel returns
	// after at most the in-flight chunks' delays.
	if elapsed > 300*time.Millisecond {
		t.Errorf("cancel took %v; workers did not stop at a chunk boundary", elapsed)
	}
}

// A panic in one cross-validation fold fails the whole CV cleanly.
func TestInjectedCVFoldPanic(t *testing.T) {
	defer faultinject.Deactivate()
	faultinject.Activate(1, faultinject.Fault{Site: "mtree.cv.fold", OnCall: 2, Panic: "fold worker down"})
	d := piecewiseDataset(2000, 5, 0.1)
	_, err := CrossValidateContext(context.Background(), d, 5, optsWithWorkers(2), 7)
	var pe *robust.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a contained *robust.PanicError", err)
	}
}

// An injected error in a permutation-importance attribute worker fails the
// stage with that error.
func TestInjectedImportanceError(t *testing.T) {
	defer faultinject.Deactivate()
	want := errors.New("injected attr failure")
	faultinject.Activate(1, faultinject.Fault{Site: "mtree.importance.attr", OnCall: 1, Err: want})
	d := piecewiseDataset(1000, 6, 0.1)
	tree, err := Build(d, optsWithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.PermutationImportanceContext(context.Background(), d, 2, 3); !errors.Is(err, want) {
		t.Fatalf("err = %v, want injected failure", err)
	}
}
