package mtree

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"specchar/internal/dataset"
)

// treeJSONBytes serializes a tree and fails the test on error.
func treeJSONBytes(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestParallelBuildDeterministic is the tentpole guarantee: the induced
// tree is byte-for-byte identical at every worker count, on a dataset
// large enough to cross both the node and split parallel cutoffs.
func TestParallelBuildDeterministic(t *testing.T) {
	d := piecewiseDataset(5000, 7, 0.3)
	opts := DefaultOptions()
	opts.MinLeaf = 10

	opts.Workers = 1
	serial, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := treeJSONBytes(t, serial)

	for _, w := range []int{0, 2, 4, 8} {
		opts.Workers = w
		tree, err := Build(d, opts)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if got := treeJSONBytes(t, tree); !bytes.Equal(got, want) {
			t.Errorf("Workers=%d produced a different tree than Workers=1", w)
		}
	}
}

// TestParallelPredictDatasetDeterministic checks that chunked batch
// prediction matches per-sample prediction exactly.
func TestParallelPredictDatasetDeterministic(t *testing.T) {
	d := piecewiseDataset(3000, 11, 0.2)
	opts := DefaultOptions()
	opts.MinLeaf = 10
	tree, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree.Opts.Workers = 4
	batch := must(tree.PredictDatasetCheckedContext(context.Background(), d))
	if len(batch) != d.Len() {
		t.Fatalf("PredictDatasetCheckedContext returned %d values for %d samples", len(batch), d.Len())
	}
	for i, s := range d.Samples {
		if got := tree.Predict(s.X); got != batch[i] {
			t.Fatalf("sample %d: batch %v != point %v", i, batch[i], got)
		}
	}
}

// TestFitSimplifiedUnderDetermined exercises the fallback fixed in this
// change: four samples with three candidate terms used to reach the QR
// solver with more parameters than rows after a single halving.
func TestFitSimplifiedUnderDetermined(t *testing.T) {
	schema := &dataset.Schema{Response: "y", Attributes: []string{"a", "b", "c"}}
	d := dataset.New(schema)
	for i := 0; i < 4; i++ {
		v := float64(i)
		if err := d.Append(dataset.Sample{X: []float64{v, v * v, 1 - v}, Y: 2 * v}); err != nil {
			t.Fatal(err)
		}
	}
	b := &builder{xs: d.Xs(), ys: d.Ys(), opts: DefaultOptions()}
	m := b.fitSimplified(0, d.Len(), []int{0, 1, 2})
	if m == nil {
		t.Fatal("fitSimplified returned nil")
	}
	// n=4 supports at most n-3 = 1 term; anything more is under-determined.
	if m.NumTerms() > 1 {
		t.Errorf("model kept %d terms for 4 samples", m.NumTerms())
	}
	for _, s := range d.Samples {
		if p := m.Predict(s.X); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("non-finite prediction %v", p)
		}
	}
}

// TestBuildSurvivesNaNColumn constructs a dataset with NaN predictor
// values directly (bypassing the ingest validation) and checks that tree
// induction neither panics nor splits on the poisoned attribute.
func TestBuildSurvivesNaNColumn(t *testing.T) {
	d := piecewiseDataset(400, 3, 0.2)
	schema := &dataset.Schema{Response: "y", Attributes: []string{"a", "b", "nan"}}
	poisoned := dataset.New(schema)
	for _, s := range d.Samples {
		x := append(append([]float64(nil), s.X...), math.NaN())
		poisoned.Samples = append(poisoned.Samples, dataset.Sample{X: x, Y: s.Y, Label: s.Label})
	}
	opts := DefaultOptions()
	opts.MinLeaf = 10
	tree, err := Build(poisoned, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tree.SplitAttributes() {
		if a == 2 {
			t.Error("tree split on the all-NaN attribute")
		}
	}
}

// TestCheckedPredictionErrors pins the width validation of the pointer
// tree's batch entry points: a narrower schema, a wider schema, and
// ragged rows under a matching schema are all ErrSampleWidth
// diagnostics, never panics; valid input agrees with the per-sample
// reference.
func TestCheckedPredictionErrors(t *testing.T) {
	d := piecewiseDataset(200, 5, 0.2)
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	narrow := dataset.New(&dataset.Schema{Response: "y", Attributes: []string{"a"}})
	if err := narrow.Append(dataset.Sample{X: []float64{0.5}, Y: 1}); err != nil {
		t.Fatal(err)
	}
	wide := dataset.New(&dataset.Schema{Response: "y", Attributes: []string{"a", "b", "c"}})
	if err := wide.Append(dataset.Sample{X: []float64{0.1, 0.2, 0.3}, Y: 1}); err != nil {
		t.Fatal(err)
	}
	ragged := dataset.New(twoAttrSchema())
	ragged.Samples = append(ragged.Samples, dataset.Sample{X: []float64{0.5}, Y: 1})
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"PredictDatasetCheckedContext(narrow)", errOf(tree.PredictDatasetCheckedContext(ctx, narrow))},
		{"PredictDatasetCheckedContext(wide)", errOf(tree.PredictDatasetCheckedContext(ctx, wide))},
		{"PredictDatasetCheckedContext(ragged)", errOf(tree.PredictDatasetCheckedContext(ctx, ragged))},
		{"ClassifyLeavesCheckedContext(narrow)", errOf(tree.ClassifyLeavesCheckedContext(ctx, narrow))},
		{"ClassifyLeavesCheckedContext(wide)", errOf(tree.ClassifyLeavesCheckedContext(ctx, wide))},
		{"ClassifyLeavesCheckedContext(ragged)", errOf(tree.ClassifyLeavesCheckedContext(ctx, ragged))},
	} {
		if !errors.Is(tc.err, ErrSampleWidth) {
			t.Errorf("%s = %v, want ErrSampleWidth", tc.name, tc.err)
		}
	}

	// Checked batch calls agree with the per-sample reference on valid
	// input.
	preds := must(tree.PredictDatasetCheckedContext(ctx, d))
	leaves := must(tree.ClassifyLeavesCheckedContext(ctx, d))
	if len(preds) != d.Len() || len(leaves) != d.Len() {
		t.Fatalf("got %d predictions and %d leaves for %d samples", len(preds), len(leaves), d.Len())
	}
	for i, s := range d.Samples {
		if preds[i] != tree.Predict(s.X) {
			t.Fatalf("sample %d: batch %v, Predict %v", i, preds[i], tree.Predict(s.X))
		}
		if leaves[i] != tree.Classify(s.X).LeafID {
			t.Fatalf("sample %d: batch leaf %d, Classify %d", i, leaves[i], tree.Classify(s.X).LeafID)
		}
	}
}

// TestCrossValidateParallelDeterministic checks that fold training on the
// worker pool reports the same numbers as a serial run.
func TestCrossValidateParallelDeterministic(t *testing.T) {
	d := piecewiseDataset(600, 9, 0.3)
	opts := DefaultOptions()
	opts.MinLeaf = 8

	opts.Workers = 1
	serial, err := CrossValidate(d, 5, opts, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	parallel, err := CrossValidate(d, 5, opts, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.FoldMAE {
		if serial.FoldMAE[i] != parallel.FoldMAE[i] || serial.FoldRMSE[i] != parallel.FoldRMSE[i] {
			t.Fatalf("fold %d differs: serial (%v, %v) vs parallel (%v, %v)",
				i, serial.FoldMAE[i], serial.FoldRMSE[i], parallel.FoldMAE[i], parallel.FoldRMSE[i])
		}
	}
}

// TestImportanceParallelDeterministic checks the same for permutation
// importance, whose permutations are pre-drawn in a fixed order.
func TestImportanceParallelDeterministic(t *testing.T) {
	d := piecewiseDataset(500, 13, 0.3)
	opts := DefaultOptions()
	opts.MinLeaf = 8
	tree, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree.Opts.Workers = 1
	serial := tree.PermutationImportance(d, 3, 99)
	tree.Opts.Workers = 4
	parallel := tree.PermutationImportance(d, 3, 99)
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("attr rank %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}
