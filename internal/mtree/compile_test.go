package mtree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"specchar/internal/dataset"
)

// closeEnough is the compiled/interpreted equivalence tolerance: the two
// paths compose the same smoothing blend in a different association
// order, so they may differ by float rounding but never by more than a
// relative 1e-9.
func closeEnough(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// must returns v and panics on a non-nil err, in the style of
// template.Must: the scoring calls it wraps only fail on a broken
// invariant, which the test binary then reports with a stack trace.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// errOf keeps only the error of a (value, error) result, so table tests
// can list calls with different result types side by side.
func errOf[T any](_ T, err error) error { return err }

// assertCompiledEquivalent checks every per-sample and batch contract
// between a tree and its compiled form on the dataset, across worker
// counts.
func assertCompiledEquivalent(t *testing.T, tree *Tree, d *dataset.Dataset) {
	t.Helper()
	ctree, err := tree.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got, want := ctree.NumLeaves(), tree.NumLeaves(); got != want {
		t.Fatalf("NumLeaves = %d, want %d", got, want)
	}
	if got, want := ctree.Smoothed(), tree.Opts.Smooth; got != want {
		t.Fatalf("Smoothed = %v, want %v", got, want)
	}
	for i, s := range d.Samples {
		want := tree.Predict(s.X)
		got := ctree.Predict(s.X)
		if !closeEnough(got, want) {
			t.Fatalf("sample %d: compiled %v, interpreted %v (diff %g)", i, got, want, got-want)
		}
		if leaf, wantLeaf := ctree.ClassifyLeaf(s.X), tree.Classify(s.X).LeafID; leaf != wantLeaf {
			t.Fatalf("sample %d: ClassifyLeaf = %d, Classify().LeafID = %d", i, leaf, wantLeaf)
		}
	}
	for _, workers := range []int{0, 1, 4, 8} {
		cw := ctree.WithWorkers(workers)
		preds := must(cw.PredictDatasetCheckedContext(context.Background(), d))
		leaves := must(cw.ClassifyLeavesCheckedContext(context.Background(), d))
		if len(preds) != d.Len() || len(leaves) != d.Len() {
			t.Fatalf("workers=%d: batch lengths %d/%d, want %d", workers, len(preds), len(leaves), d.Len())
		}
		for i, s := range d.Samples {
			// Batch and point prediction run the identical arithmetic, so
			// they must agree bit-exactly at every worker count.
			if want := ctree.Predict(s.X); preds[i] != want {
				t.Fatalf("workers=%d sample %d: batch %v, point %v", workers, i, preds[i], want)
			}
			if want := ctree.ClassifyLeaf(s.X); leaves[i] != want {
				t.Fatalf("workers=%d sample %d: batch leaf %d, point leaf %d", workers, i, leaves[i], want)
			}
		}
	}
}

func TestCompiledMatchesInterpreted(t *testing.T) {
	d := piecewiseDataset(3000, 11, 0.2)
	for _, tc := range []struct {
		name          string
		smooth, prune bool
	}{
		{"smooth+prune", true, true},
		{"smooth", true, false},
		{"prune", false, true},
		{"plain", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.MinLeaf = 10
			opts.Smooth = tc.smooth
			opts.Prune = tc.prune
			tree, err := Build(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertCompiledEquivalent(t, tree, d)
		})
	}
}

// TestCompiledMatchesGoldenTree pins equivalence on the committed golden
// configuration — the exact tree every release serializes.
func TestCompiledMatchesGoldenTree(t *testing.T) {
	assertCompiledEquivalent(t, goldenBuild(t, 1), piecewiseDataset(1200, 17, 0.25))
}

// TestCompiledProperty fuzzes equivalence over random datasets and
// induction options: whatever shape the tree takes, its compiled form
// must predict identically.
func TestCompiledProperty(t *testing.T) {
	schema := &dataset.Schema{Response: "y", Attributes: []string{"a", "b", "c", "d"}}
	for trial := 0; trial < 25; trial++ {
		r := dataset.NewRNG(uint64(1000 + trial))
		n := 200 + int(r.Uint64()%800)
		d := dataset.New(schema)
		for i := 0; i < n; i++ {
			x := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
			y := 3*x[0] - 2*x[1] + (r.Float64()-0.5)*0.3
			if x[2] > 0.5 {
				y += 5 - 4*x[3]
			}
			_ = d.Append(dataset.Sample{X: x, Y: y, Label: "fuzz"})
		}
		opts := DefaultOptions()
		opts.MinLeaf = 4 + int(r.Uint64()%20)
		opts.MaxDepth = int(r.Uint64() % 6) // 0 = unlimited
		opts.Smooth = r.Uint64()%2 == 0
		opts.Prune = r.Uint64()%2 == 0
		opts.SmoothingK = 5 + float64(r.Uint64()%30)
		tree, err := Build(d, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertCompiledEquivalent(t, tree, d)
	}
}

// TestCompiledLeafModels checks the inspectable pre-composed models: for
// every sample, evaluating the LeafModel of the sample's leaf must equal
// the compiled prediction.
func TestCompiledLeafModels(t *testing.T) {
	d := piecewiseDataset(1500, 23, 0.1)
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ctree.LeafModel(0) != nil || ctree.LeafModel(ctree.NumLeaves()+1) != nil {
		t.Error("LeafModel out of range should return nil")
	}
	for _, s := range d.Samples {
		id := ctree.ClassifyLeaf(s.X)
		m := ctree.LeafModel(id)
		if m == nil {
			t.Fatalf("LeafModel(%d) = nil", id)
		}
		if got, want := m.Predict(s.X), ctree.Predict(s.X); !closeEnough(got, want) {
			t.Fatalf("LeafModel(%d).Predict = %v, compiled Predict = %v", id, got, want)
		}
	}
}

func TestCompiledCheckedErrors(t *testing.T) {
	d := piecewiseDataset(600, 31, 0.1)
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	narrow := dataset.New(&dataset.Schema{Response: "y", Attributes: []string{"a"}})
	_ = narrow.Append(dataset.Sample{X: []float64{0.5}, Y: 1})
	wide := dataset.New(&dataset.Schema{Response: "y", Attributes: []string{"a", "b", "c"}})
	_ = wide.Append(dataset.Sample{X: []float64{1, 2, 3}, Y: 1})
	// A dataset whose declared schema matches but whose rows are ragged
	// must be a diagnostic, not an out-of-range panic.
	ragged := dataset.New(twoAttrSchema())
	ragged.Samples = append(ragged.Samples, dataset.Sample{X: []float64{0.5}, Y: 1})
	// Column sets: too few columns, and a column shorter than n.
	cols := d.Columns()
	shortCol := [][]float64{cols[0], cols[1][:d.Len()-1]}
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"PredictDatasetCheckedContext narrow", errOf(ctree.PredictDatasetCheckedContext(ctx, narrow))},
		{"PredictDatasetCheckedContext wide", errOf(ctree.PredictDatasetCheckedContext(ctx, wide))},
		{"PredictDatasetCheckedContext ragged", errOf(ctree.PredictDatasetCheckedContext(ctx, ragged))},
		{"PredictDatasetChecked narrow", errOf(ctree.PredictDatasetChecked(narrow))},
		{"PredictDatasetChecked ragged", errOf(ctree.PredictDatasetChecked(ragged))},
		{"ClassifyLeavesCheckedContext narrow", errOf(ctree.ClassifyLeavesCheckedContext(ctx, narrow))},
		{"ClassifyLeavesCheckedContext wide", errOf(ctree.ClassifyLeavesCheckedContext(ctx, wide))},
		{"ClassifyLeavesCheckedContext ragged", errOf(ctree.ClassifyLeavesCheckedContext(ctx, ragged))},
		{"PredictColumnsCheckedContext narrow", errOf(ctree.PredictColumnsCheckedContext(ctx, cols[:1], d.Len()))},
		{"PredictColumnsCheckedContext short column", errOf(ctree.PredictColumnsCheckedContext(ctx, shortCol, d.Len()))},
		{"PredictColumnsChecked narrow", errOf(ctree.PredictColumnsChecked(cols[:1], d.Len()))},
		{"PredictColumnsChecked short column", errOf(ctree.PredictColumnsChecked(shortCol, d.Len()))},
	} {
		if !errors.Is(tc.err, ErrSampleWidth) {
			t.Errorf("%s: err = %v, want ErrSampleWidth", tc.name, tc.err)
		}
	}
	// The benchmark-harness wrappers score exactly like the context entry
	// points on valid input.
	want := must(ctree.PredictDatasetCheckedContext(ctx, d))
	rows := must(ctree.PredictDatasetChecked(d))
	colPreds := must(ctree.PredictColumnsChecked(cols, d.Len()))
	for i := range want {
		if math.Float64bits(rows[i]) != math.Float64bits(want[i]) || math.Float64bits(colPreds[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d: PredictDatasetChecked %v, PredictColumnsChecked %v, context entry point %v",
				i, rows[i], colPreds[i], want[i])
		}
	}
}

func TestCompileRejectsMalformedTrees(t *testing.T) {
	if _, err := (&Tree{}).Compile(); err == nil {
		t.Error("Compile accepted a tree without schema or root")
	}
	tree := &Tree{Schema: twoAttrSchema(), Root: &Node{}}
	if _, err := tree.Compile(); err == nil {
		t.Error("Compile accepted a leaf without a model")
	}
}

// TestEvaluateSplitsParallelDeterministic pins the satellite contract of
// the pooled split scan: the per-attribute ranking is identical at every
// worker count.
func TestEvaluateSplitsParallelDeterministic(t *testing.T) {
	d := piecewiseDataset(2500, 41, 0.3)
	opts := DefaultOptions()
	opts.Workers = 1
	serial := EvaluateSplits(d, opts)
	for _, workers := range []int{0, 2, 8} {
		opts.Workers = workers
		got := EvaluateSplits(d, opts)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d candidates, serial %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d candidate %d: %+v, serial %+v", workers, i, got[i], serial[i])
			}
		}
	}
}

// One compiled tree shared read-only across many scoring goroutines — the
// registry/serving access pattern — must be race-free, and WithWorkers
// views must let each goroutine pick its own worker bound without
// mutating the shared value. Run under -race this pins that scoring
// through views never writes shared state.
func TestCompiledSharedScoringNoRace(t *testing.T) {
	d := piecewiseDataset(2000, 7, 0.2)
	opts := DefaultOptions()
	opts.MinLeaf = 10
	tree, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := must(shared.WithWorkers(1).PredictDatasetCheckedContext(context.Background(), d))

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mixed worker bounds per goroutine, all derived views of the
			// one shared tree; the shared value is never written.
			view := shared.WithWorkers(g%4 + 1)
			if view.NumLeaves() != shared.NumLeaves() {
				errs <- fmt.Errorf("goroutine %d: view lost structure", g)
				return
			}
			got, err := view.PredictDatasetCheckedContext(context.Background(), d)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", g, err)
				return
			}
			for i := range got {
				if got[i] != want[i] {
					errs <- fmt.Errorf("goroutine %d sample %d: %v != %v", g, i, got[i], want[i])
					return
				}
			}
			for i, s := range d.Samples {
				if shared.ClassifyLeaf(s.X) != view.ClassifyLeaf(s.X) {
					errs <- fmt.Errorf("goroutine %d sample %d: leaf mismatch", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if shared.workers != tree.Opts.Workers {
		t.Errorf("shared tree workers mutated to %d", shared.workers)
	}
}

// WithWorkers is copy-on-set: same bound returns the receiver, a new
// bound returns a view sharing the model but not the setting.
func TestWithWorkers(t *testing.T) {
	tree, err := Build(piecewiseDataset(300, 3, 0.2), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.WithWorkers(c.workers) != c {
		t.Error("WithWorkers(same) should return the receiver")
	}
	v := c.WithWorkers(c.workers + 3)
	if v == c || v.workers != c.workers+3 {
		t.Errorf("WithWorkers view wrong: %p vs %p, workers %d", v, c, v.workers)
	}
	x := make([]float64, c.NumAttrs())
	if c.Predict(x) != v.Predict(x) {
		t.Error("view predicts differently from its source")
	}
}
