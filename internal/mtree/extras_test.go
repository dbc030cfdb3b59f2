package mtree

import (
	"context"
	"math"
	"strings"
	"testing"

	"specchar/internal/dataset"
)

func TestRenderDot(t *testing.T) {
	d := piecewiseDataset(1000, 21, 0.05)
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dot := tree.RenderDot("Figure 1")
	for _, want := range []string{
		"digraph mtree",
		`label="Figure 1"`,
		"shape=ellipse",
		"shape=box",
		"LM1",
		"-> ",
		"<= ",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Node and edge counts must be consistent: for a binary tree with L
	// leaves there are L-1 interior nodes and 2(L-1) edges.
	leaves := strings.Count(dot, "shape=box")
	interior := strings.Count(dot, "shape=ellipse")
	edges := strings.Count(dot, "->")
	if leaves != tree.NumLeaves() {
		t.Errorf("DOT has %d leaf nodes, tree has %d", leaves, tree.NumLeaves())
	}
	if interior != leaves-1 {
		t.Errorf("DOT has %d interior nodes for %d leaves", interior, leaves)
	}
	if edges != 2*interior {
		t.Errorf("DOT has %d edges for %d interior nodes", edges, interior)
	}
}

func TestRenderDotSingleLeaf(t *testing.T) {
	d := dataset.New(twoAttrSchema())
	for i := 0; i < 50; i++ {
		_ = d.Append(dataset.Sample{X: []float64{1, 2}, Y: 3, Label: "c"})
	}
	tree, _ := Build(d, DefaultOptions())
	dot := tree.RenderDot("constant")
	if !strings.Contains(dot, "LM1") || strings.Contains(dot, "->") {
		t.Errorf("single-leaf DOT malformed:\n%s", dot)
	}
}

func TestCrossValidate(t *testing.T) {
	d := piecewiseDataset(1200, 22, 0.1)
	res, err := CrossValidateContext(context.Background(), d, 5, DefaultOptions(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Folds != 5 || len(res.FoldMAE) != 5 || len(res.FoldRMSE) != 5 {
		t.Fatalf("result shape: %+v", res)
	}
	// The tree fits this piecewise data well: CV MAE must be small
	// relative to the response scale (~1-10).
	if res.MeanMAE > 0.3 {
		t.Errorf("CV MAE = %v, want small", res.MeanMAE)
	}
	if res.MeanRMSE < res.MeanMAE {
		t.Errorf("RMSE %v below MAE %v", res.MeanRMSE, res.MeanMAE)
	}
	if res.StdErrMAE < 0 || math.IsNaN(res.StdErrMAE) {
		t.Errorf("StdErrMAE = %v", res.StdErrMAE)
	}
	if !strings.Contains(res.String(), "5-fold CV") {
		t.Errorf("String() = %q", res.String())
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	d := piecewiseDataset(600, 23, 0.1)
	r1, err := CrossValidateContext(context.Background(), d, 4, DefaultOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := CrossValidateContext(context.Background(), d, 4, DefaultOptions(), 7)
	for i := range r1.FoldMAE {
		if r1.FoldMAE[i] != r2.FoldMAE[i] {
			t.Fatal("CV not deterministic")
		}
	}
}

func TestCrossValidateErrors(t *testing.T) {
	d := piecewiseDataset(100, 24, 0.1)
	if _, err := CrossValidateContext(context.Background(), d, 1, DefaultOptions(), 1); err == nil {
		t.Error("k=1 should error")
	}
	tiny := piecewiseDataset(5, 25, 0.1)
	if _, err := CrossValidateContext(context.Background(), tiny, 4, DefaultOptions(), 1); err == nil {
		t.Error("too-small dataset should error")
	}
}

func TestCrossValidateFoldsPartition(t *testing.T) {
	// Fold sizes must differ by at most 1 and cover everything.
	d := piecewiseDataset(103, 26, 0.1) // 103 = 5*20 + 3
	k := 5
	perm := dataset.NewRNG(3).Perm(d.Len())
	sizes := make([]int, k)
	for i := range perm {
		sizes[i%k]++
	}
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 1 {
		t.Errorf("fold sizes unbalanced: %v", sizes)
	}
}

func TestEvaluateSplits(t *testing.T) {
	d := piecewiseDataset(800, 27, 0.05)
	cands := must(EvaluateSplitsContext(context.Background(), d, DefaultOptions()))
	if len(cands) != 2 {
		t.Fatalf("got %d candidates", len(cands))
	}
	// Attribute "a" (the regime switch) must rank first with the larger
	// SDR and a threshold near 0.5.
	if cands[0].Name != "a" {
		t.Errorf("top candidate = %s, want a", cands[0].Name)
	}
	if !cands[0].Valid || cands[0].SDR <= cands[1].SDR {
		t.Errorf("candidates not ordered by SDR: %+v", cands)
	}
	if math.Abs(cands[0].Threshold-0.5) > 0.05 {
		t.Errorf("top threshold = %v, want ~0.5", cands[0].Threshold)
	}
}

func TestEvaluateSplitsEmpty(t *testing.T) {
	if got := must(EvaluateSplitsContext(context.Background(), dataset.New(twoAttrSchema()), DefaultOptions())); got != nil {
		t.Errorf("EvaluateSplitsContext on empty = %v", got)
	}
}

func TestEvaluateSplitsConstantResponse(t *testing.T) {
	d := dataset.New(twoAttrSchema())
	r := dataset.NewRNG(1)
	for i := 0; i < 100; i++ {
		_ = d.Append(dataset.Sample{X: []float64{r.Float64(), r.Float64()}, Y: 1})
	}
	for _, c := range must(EvaluateSplitsContext(context.Background(), d, DefaultOptions())) {
		if c.Valid {
			t.Errorf("constant response yielded valid split: %+v", c)
		}
	}
}

func TestPermutationImportance(t *testing.T) {
	// Attribute "a" carries the regime switch and most of the signal;
	// attribute "b" carries the within-regime slope. A third pure-noise
	// attribute must rank last.
	schema := &dataset.Schema{Response: "y", Attributes: []string{"a", "b", "noise"}}
	d := dataset.New(schema)
	r := dataset.NewRNG(31)
	for i := 0; i < 2000; i++ {
		a, b, nz := r.Float64(), r.Float64(), r.Float64()
		y := 1 + 2*b
		if a > 0.5 {
			y = 10 - 4*b
		}
		_ = d.Append(dataset.Sample{X: []float64{a, b, nz}, Y: y, Label: "x"})
	}
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	imp := tree.PermutationImportance(d, 3, 7)
	if len(imp) != 3 {
		t.Fatalf("got %d importances", len(imp))
	}
	byName := map[string]float64{}
	for _, ai := range imp {
		byName[ai.Name] = ai.MAEIncrease
	}
	if imp[0].Name != "a" {
		t.Errorf("top importance = %s, want a (%v)", imp[0].Name, byName)
	}
	if byName["a"] <= byName["b"] || byName["b"] <= byName["noise"] {
		t.Errorf("importance ordering wrong: %v", byName)
	}
	if byName["noise"] > 0.1 {
		t.Errorf("noise attribute importance = %v, want ~0", byName["noise"])
	}
	// Importance must not mutate the dataset.
	if d.Samples[0].X[0] != imp[0].MAEIncrease*0+d.Samples[0].X[0] {
		t.Error("unreachable")
	}
}

func TestPermutationImportanceDeterministic(t *testing.T) {
	d := piecewiseDataset(600, 32, 0.1)
	tree, _ := Build(d, DefaultOptions())
	i1 := tree.PermutationImportance(d, 2, 5)
	i2 := tree.PermutationImportance(d, 2, 5)
	for k := range i1 {
		if i1[k] != i2[k] {
			t.Fatal("importance not deterministic")
		}
	}
	if got := tree.PermutationImportance(dataset.New(twoAttrSchema()), 2, 5); got != nil {
		t.Error("empty dataset should give nil")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := piecewiseDataset(1500, 51, 0.1)
	tree, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Structure preserved.
	if got.NumLeaves() != tree.NumLeaves() || got.Depth() != tree.Depth() {
		t.Errorf("shape changed: %d/%d leaves, %d/%d depth",
			got.NumLeaves(), tree.NumLeaves(), got.Depth(), tree.Depth())
	}
	// Predictions identical (smoothing included: options round-trip).
	for _, s := range d.Samples[:100] {
		if a, b := tree.Predict(s.X), got.Predict(s.X); a != b {
			t.Fatalf("prediction changed after round trip: %v vs %v", a, b)
		}
	}
	// Renders identically.
	if tree.Render() != got.Render() {
		t.Error("render changed after round trip")
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "not json"},
		{"wrong version", `{"version":99,"schema":{"Response":"y","Attributes":["a"]},"root":{"model":{}}}`},
		{"missing root", `{"version":1,"schema":{"Response":"y","Attributes":["a"]}}`},
		{"missing model", `{"version":1,"schema":{"Response":"y","Attributes":["a"]},"root":{"n":1}}`},
		{"one child", `{"version":1,"schema":{"Response":"y","Attributes":["a"]},"root":{"model":{},"left":{"model":{}}}}`},
		{"term out of range", `{"version":1,"schema":{"Response":"y","Attributes":["a"]},"root":{"model":{"Terms":[5],"Coef":[1]}}}`},
		{"terms-coef mismatch", `{"version":1,"schema":{"Response":"y","Attributes":["a"]},"root":{"model":{"Terms":[0],"Coef":[]}}}`},
		{"bad split attr", `{"version":1,"schema":{"Response":"y","Attributes":["a"]},"root":{"attr":7,"model":{},"left":{"model":{}},"right":{"model":{}}}}`},
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParallelSplitSearchDeterministic(t *testing.T) {
	// A dataset big enough to trip the parallel path at the root: parallel
	// and serial induction must agree exactly (covered indirectly by
	// TestDeterministicBuild, but assert the threshold explicitly here).
	d := piecewiseDataset(parallelSplitThreshold+500, 61, 0.2)
	t1, err := Build(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := Build(d, DefaultOptions())
	if t1.Render() != t2.Render() || t1.RenderModels() != t2.RenderModels() {
		t.Error("parallel split search is nondeterministic")
	}
}
