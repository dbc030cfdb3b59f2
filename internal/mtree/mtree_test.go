package mtree

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"specchar/internal/dataset"
)

func twoAttrSchema() *dataset.Schema {
	return &dataset.Schema{Response: "y", Attributes: []string{"a", "b"}}
}

// piecewiseDataset builds data with two sharply distinct linear regimes
// separated at a = 0.5:
//
//	a <= 0.5: y = 1 + 2*b
//	a >  0.5: y = 10 - 4*b
func piecewiseDataset(n int, seed uint64, noise float64) *dataset.Dataset {
	d := dataset.New(twoAttrSchema())
	r := dataset.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		var y float64
		if a <= 0.5 {
			y = 1 + 2*b
		} else {
			y = 10 - 4*b
		}
		y += (r.Float64() - 0.5) * noise
		_ = d.Append(dataset.Sample{X: []float64{a, b}, Y: y, Label: "synthetic"})
	}
	return d
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(dataset.New(twoAttrSchema()), DefaultOptions()); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestBuildRecoversPiecewiseStructure(t *testing.T) {
	d := piecewiseDataset(2000, 1, 0.01)
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The root split must be on attribute "a" near 0.5.
	if tree.Root.IsLeaf() {
		t.Fatal("tree did not split at all")
	}
	if tree.Root.Attr != 0 {
		t.Errorf("root split attr = %d (%s), want 0 (a)", tree.Root.Attr, tree.Schema.Attributes[tree.Root.Attr])
	}
	if math.Abs(tree.Root.Threshold-0.5) > 0.05 {
		t.Errorf("root threshold = %v, want ~0.5", tree.Root.Threshold)
	}
	// Predictions on each regime must be accurate.
	for _, tc := range []struct {
		x    []float64
		want float64
	}{
		{[]float64{0.2, 0.5}, 2},
		{[]float64{0.9, 0.5}, 8},
		{[]float64{0.1, 0.0}, 1},
		{[]float64{0.8, 1.0}, 6},
	} {
		got := tree.Predict(tc.x)
		if math.Abs(got-tc.want) > 0.25 {
			t.Errorf("Predict(%v) = %v, want ~%v", tc.x, got, tc.want)
		}
	}
}

func TestLeafModelsCaptureLocalSlope(t *testing.T) {
	d := piecewiseDataset(3000, 2, 0.001)
	opts := DefaultOptions()
	opts.Smooth = false
	tree, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	// With smoothing off, per-regime predictions should be nearly exact.
	if got := tree.Predict([]float64{0.25, 0.3}); math.Abs(got-1.6) > 0.05 {
		t.Errorf("left regime Predict = %v, want ~1.6", got)
	}
	if got := tree.Predict([]float64{0.75, 0.3}); math.Abs(got-8.8) > 0.05 {
		t.Errorf("right regime Predict = %v, want ~8.8", got)
	}
}

func TestConstantResponseGivesSingleLeaf(t *testing.T) {
	d := dataset.New(twoAttrSchema())
	r := dataset.NewRNG(3)
	for i := 0; i < 500; i++ {
		_ = d.Append(dataset.Sample{X: []float64{r.Float64(), r.Float64()}, Y: 7, Label: "const"})
	}
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Errorf("constant response should give a single leaf; got depth %d", tree.Depth())
	}
	if got := tree.Predict([]float64{0.5, 0.5}); math.Abs(got-7) > 1e-9 {
		t.Errorf("Predict = %v, want 7", got)
	}
	if tree.NumLeaves() != 1 || tree.Leaves()[0].LeafID != 1 {
		t.Errorf("leaves = %d", tree.NumLeaves())
	}
}

func TestMinLeafRespected(t *testing.T) {
	d := piecewiseDataset(400, 4, 0.05)
	opts := DefaultOptions()
	opts.MinLeaf = 50
	opts.Prune = false
	tree, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tree.Leaves() {
		if leaf.N < opts.MinLeaf {
			t.Errorf("leaf with %d samples violates MinLeaf %d", leaf.N, opts.MinLeaf)
		}
	}
}

func TestMaxDepthCap(t *testing.T) {
	d := piecewiseDataset(2000, 5, 0.2)
	opts := DefaultOptions()
	opts.MaxDepth = 2
	opts.Prune = false
	tree, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 3 { // depth counts nodes; MaxDepth counts split levels
		t.Errorf("depth = %d exceeds MaxDepth cap", tree.Depth())
	}
}

func TestPruningReducesLeaves(t *testing.T) {
	// Pure linear data: an unpruned tree will split on noise; pruning
	// should collapse it substantially.
	d := dataset.New(twoAttrSchema())
	r := dataset.NewRNG(6)
	for i := 0; i < 1500; i++ {
		a, b := r.Float64(), r.Float64()
		y := 2 + 3*a - b + (r.Float64()-0.5)*0.02
		_ = d.Append(dataset.Sample{X: []float64{a, b}, Y: y, Label: "linear"})
	}
	noPrune := DefaultOptions()
	noPrune.Prune = false
	noPrune.SDThresholdFrac = 0.01
	t1, err := Build(d, noPrune)
	if err != nil {
		t.Fatal(err)
	}
	withPrune := DefaultOptions()
	withPrune.SDThresholdFrac = 0.01
	t2, err := Build(d, withPrune)
	if err != nil {
		t.Fatal(err)
	}
	if t2.NumLeaves() > t1.NumLeaves() {
		t.Errorf("pruned tree has more leaves (%d) than unpruned (%d)", t2.NumLeaves(), t1.NumLeaves())
	}
	// The pruned tree should be small for globally linear data.
	if t2.NumLeaves() > 4 {
		t.Errorf("pruned tree has %d leaves on linear data, expected <= 4", t2.NumLeaves())
	}
	// And still accurate.
	if got := t2.Predict([]float64{0.5, 0.5}); math.Abs(got-3) > 0.1 {
		t.Errorf("pruned Predict = %v, want ~3", got)
	}
}

func TestLeafNumberingLeftToRight(t *testing.T) {
	d := piecewiseDataset(2000, 7, 0.3)
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	for i, leaf := range leaves {
		if leaf.LeafID != i+1 {
			t.Errorf("leaf %d has LeafID %d", i, leaf.LeafID)
		}
	}
	// The leftmost leaf must be reachable by always taking <=.
	n := tree.Root
	for !n.IsLeaf() {
		n = n.Left
	}
	if n.LeafID != 1 {
		t.Errorf("leftmost leaf has LeafID %d, want 1", n.LeafID)
	}
}

func TestClassifyMatchesPredictPartition(t *testing.T) {
	d := piecewiseDataset(1000, 8, 0.2)
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Classification counts must sum to the dataset size.
	counts := make(map[int]int)
	for _, s := range d.Samples {
		counts[tree.Classify(s.X).LeafID]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != d.Len() {
		t.Errorf("classified %d of %d samples", total, d.Len())
	}
}

func TestSmoothingBlendsTowardParent(t *testing.T) {
	d := piecewiseDataset(2000, 9, 0.05)
	smoothOn := DefaultOptions()
	smoothOff := DefaultOptions()
	smoothOff.Smooth = false
	t1, _ := Build(d, smoothOn)
	t2, _ := Build(d, smoothOff)
	// Same split structure, so leaf-local predictions differ only by
	// smoothing. Smoothed predictions must lie between the raw leaf value
	// and the overall mean direction — weaker test: they must differ
	// somewhere and stay bounded.
	var differs bool
	for _, s := range d.Samples[:200] {
		p1, p2 := t1.Predict(s.X), t2.Predict(s.X)
		if math.Abs(p1-p2) > 1e-12 {
			differs = true
		}
		if math.Abs(p1) > 100 || math.IsNaN(p1) {
			t.Fatalf("smoothed prediction unbounded: %v", p1)
		}
	}
	if !differs {
		t.Error("smoothing had no effect on any prediction")
	}
}

func TestPredictDataset(t *testing.T) {
	d := piecewiseDataset(300, 10, 0.1)
	tree, _ := Build(d, DefaultOptions())
	preds := must(tree.PredictDatasetCheckedContext(context.Background(), d))
	if len(preds) != d.Len() {
		t.Fatalf("PredictDatasetCheckedContext returned %d values", len(preds))
	}
	for i, p := range preds {
		if got := tree.Predict(d.Samples[i].X); got != p {
			t.Fatalf("PredictDatasetCheckedContext[%d] = %v, Predict = %v", i, p, got)
		}
	}
}

func TestSplitAttributesOrder(t *testing.T) {
	d := piecewiseDataset(2000, 11, 0.05)
	tree, _ := Build(d, DefaultOptions())
	attrs := tree.SplitAttributes()
	if len(attrs) == 0 {
		t.Fatal("no split attributes")
	}
	if attrs[0] != tree.Root.Attr {
		t.Errorf("first split attribute %d != root attr %d", attrs[0], tree.Root.Attr)
	}
	seen := make(map[int]bool)
	for _, a := range attrs {
		if seen[a] {
			t.Errorf("attribute %d repeated", a)
		}
		seen[a] = true
	}
}

func TestRender(t *testing.T) {
	d := piecewiseDataset(1000, 12, 0.05)
	tree, _ := Build(d, DefaultOptions())
	out := tree.Render()
	if !strings.Contains(out, "a <= ") {
		t.Errorf("Render missing root split:\n%s", out)
	}
	if !strings.Contains(out, "LM1") {
		t.Errorf("Render missing leaf labels:\n%s", out)
	}
	models := tree.RenderModels()
	if !strings.Contains(models, "LM1: y = ") {
		t.Errorf("RenderModels malformed:\n%s", models)
	}
	summary := tree.RenderSplitSummary()
	if !strings.Contains(summary, "1. a") {
		t.Errorf("RenderSplitSummary malformed:\n%s", summary)
	}
}

func TestDeterministicBuild(t *testing.T) {
	d := piecewiseDataset(1500, 13, 0.2)
	t1, _ := Build(d, DefaultOptions())
	t2, _ := Build(d, DefaultOptions())
	if t1.Render() != t2.Render() {
		t.Error("same data produced different trees")
	}
	if t1.RenderModels() != t2.RenderModels() {
		t.Error("same data produced different leaf models")
	}
}

func TestTreeBeatsGlobalLinearOnPiecewiseData(t *testing.T) {
	// The motivating property of model trees (paper Section III): on data
	// with regime changes, the tree outperforms a single linear model.
	train := piecewiseDataset(2000, 14, 0.1)
	test := piecewiseDataset(500, 15, 0.1)
	tree, err := Build(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var treeSq, linSq float64
	// Global linear fit for comparison.
	lin := fitGlobalLinear(train)
	for _, s := range test.Samples {
		dt := tree.Predict(s.X) - s.Y
		dl := lin.Predict(s.X) - s.Y
		treeSq += dt * dt
		linSq += dl * dl
	}
	if treeSq >= linSq {
		t.Errorf("tree RSS %v not better than global linear RSS %v", treeSq, linSq)
	}
}

func TestDegenerateDuplicateRows(t *testing.T) {
	// All rows identical: must not crash or split.
	d := dataset.New(twoAttrSchema())
	for i := 0; i < 100; i++ {
		_ = d.Append(dataset.Sample{X: []float64{1, 2}, Y: 5, Label: "dup"})
	}
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Error("identical rows should yield a single leaf")
	}
	if got := tree.Predict([]float64{1, 2}); math.Abs(got-5) > 1e-9 {
		t.Errorf("Predict = %v, want 5", got)
	}
}

func TestTinyDataset(t *testing.T) {
	d := dataset.New(twoAttrSchema())
	_ = d.Append(dataset.Sample{X: []float64{0, 0}, Y: 1, Label: "t"})
	_ = d.Append(dataset.Sample{X: []float64{1, 1}, Y: 2, Label: "t"})
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Error("2-sample dataset must be a single leaf under MinSplit=8")
	}
	if p := tree.Predict([]float64{0.5, 0.5}); math.IsNaN(p) {
		t.Error("prediction is NaN")
	}
}

// Property: every prediction of an unsmoothed tree equals its classified
// leaf model's prediction, and leaf populations always partition the
// training set.
func TestPartitionProperty(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16)%500 + 50
		d := piecewiseDataset(n, seed, 0.3)
		opts := DefaultOptions()
		opts.Smooth = false
		tree, err := Build(d, opts)
		if err != nil {
			return false
		}
		var leafSum int
		for _, leaf := range tree.Leaves() {
			leafSum += leaf.N
		}
		if leafSum != d.Len() {
			return false
		}
		for _, s := range d.Samples[:min(20, len(d.Samples))] {
			if tree.Predict(s.X) != tree.Classify(s.X).Model.Predict(s.X) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func fitGlobalLinear(d *dataset.Dataset) interface{ Predict([]float64) float64 } {
	b := &builder{xs: d.Xs(), ys: d.Ys(), opts: DefaultOptions()}
	return b.fitSimplified(0, d.Len(), allAttrTerms(d.Samples[0].X))
}
