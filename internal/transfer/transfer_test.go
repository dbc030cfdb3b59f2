package transfer

import (
	"math"
	"strings"
	"testing"

	"specchar/internal/dataset"
	"specchar/internal/metrics"
	"specchar/internal/mtree"
)

func twoAttrSchema() *dataset.Schema {
	return &dataset.Schema{Response: "CPI", Attributes: []string{"a", "b"}}
}

// makeRegime draws samples from a piecewise linear process; shift moves
// the response distribution, modelling a "different suite".
func makeRegime(n int, seed uint64, shift float64) *dataset.Dataset {
	d := dataset.New(twoAttrSchema())
	r := dataset.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		y := 1 + 2*a + shift
		if b > 0.5 {
			y += 1.5
		}
		y += (r.Float64() - 0.5) * 0.05
		_ = d.Append(dataset.Sample{X: []float64{a, b}, Y: y, Label: "synthetic"})
	}
	return d
}

// buildCompiled trains a default tree on d and compiles it, the form the
// facade passes to Assess.
func buildCompiled(d *dataset.Dataset) (*mtree.CompiledTree, error) {
	tree, err := mtree.Build(d, mtree.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return tree.Compile()
}

func TestAssessSameDistributionIsTransferable(t *testing.T) {
	all := makeRegime(4000, 1, 0)
	train, test := all.Split(dataset.NewRNG(2), 0.1)
	model, err := buildCompiled(train)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assess(model, train, test, "P", "Q", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.HypothesisTransferable() {
		t.Errorf("hypothesis verdict negative for same-distribution split:\n%s", a)
	}
	if !a.MetricsTransferable() {
		t.Errorf("metrics verdict negative: %s", a.Metrics)
	}
	if !a.Transferable() {
		t.Error("combined verdict negative")
	}
	if a.Metrics.Correlation < 0.95 {
		t.Errorf("C = %v, want high", a.Metrics.Correlation)
	}
}

func TestAssessShiftedDistributionFails(t *testing.T) {
	train := makeRegime(2000, 3, 0)
	// A different process: shifted mean and different structure.
	test := makeRegime(2000, 4, 1.2)
	model, err := buildCompiled(train)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assess(model, train, test, "P", "Q", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.HypothesisTransferable() {
		t.Errorf("hypothesis verdict positive for shifted distribution:\n%s", a)
	}
	if a.MetricsTransferable() {
		t.Errorf("metrics verdict positive: MAE=%v", a.Metrics.MAE)
	}
	if a.Transferable() {
		t.Error("combined verdict positive")
	}
	// The shift appears directly in the MAE.
	if a.Metrics.MAE < 0.5 {
		t.Errorf("MAE = %v, want ~1.2", a.Metrics.MAE)
	}
}

func TestAssessDefaults(t *testing.T) {
	all := makeRegime(500, 5, 0)
	train, test := all.Split(dataset.NewRNG(6), 0.5)
	model, _ := buildCompiled(train)
	a, err := Assess(model, train, test, "P", "Q", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Alpha != 0.05 {
		t.Errorf("default alpha = %v", a.Alpha)
	}
	if a.Thresholds != metrics.PaperThresholds() {
		t.Errorf("default thresholds = %+v", a.Thresholds)
	}
	// Custom options pass through.
	a, err = Assess(model, train, test, "P", "Q", Options{
		Alpha:      0.01,
		Thresholds: metrics.Thresholds{MinCorrelation: 0.5, MaxMAE: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Alpha != 0.01 || a.Thresholds.MaxMAE != 1 {
		t.Errorf("custom options not applied: %+v", a)
	}
}

func TestAssessErrors(t *testing.T) {
	all := makeRegime(100, 7, 0)
	model, _ := buildCompiled(all)
	empty := dataset.New(twoAttrSchema())
	if _, err := Assess(model, empty, all, "P", "Q", Options{}); err == nil {
		t.Error("empty train should error")
	}
	if _, err := Assess(model, all, empty, "P", "Q", Options{}); err == nil {
		t.Error("empty test should error")
	}
}

func TestAssessmentString(t *testing.T) {
	all := makeRegime(400, 8, 0)
	train, test := all.Split(dataset.NewRNG(9), 0.3)
	model, _ := buildCompiled(train)
	a, _ := Assess(model, train, test, "TrainSuite", "TestSuite", Options{})
	out := a.String()
	for _, want := range []string{"TrainSuite", "TestSuite", "sample t-test",
		"prediction t-test", "Mann-Whitney", "Levene", "accuracy", "verdict"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestSweepImprovesWithData(t *testing.T) {
	all := makeRegime(3000, 10, 0)
	points, err := Sweep(all, []float64{0.02, 0.3}, mtree.DefaultOptions(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].TrainN >= points[1].TrainN {
		t.Error("train sizes not increasing")
	}
	// More training data should not be dramatically worse.
	if points[1].Metrics.MAE > points[0].Metrics.MAE*2+0.05 {
		t.Errorf("MAE degraded with more data: %v -> %v",
			points[0].Metrics.MAE, points[1].Metrics.MAE)
	}
	for _, p := range points {
		if math.IsNaN(p.Metrics.Correlation) {
			t.Error("NaN correlation in sweep")
		}
	}
}

func TestSweepTooSmallFraction(t *testing.T) {
	all := makeRegime(50, 11, 0)
	if _, err := Sweep(all, []float64{0.01}, mtree.DefaultOptions(), 1); err == nil {
		t.Error("tiny fraction on tiny dataset should error")
	}
}

func TestSweepDeterministic(t *testing.T) {
	all := makeRegime(1000, 12, 0)
	p1, err := Sweep(all, []float64{0.1}, mtree.DefaultOptions(), 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Sweep(all, []float64{0.1}, mtree.DefaultOptions(), 7)
	if p1[0].Metrics.MAE != p2[0].Metrics.MAE {
		t.Error("sweep not deterministic for same seed")
	}
}

func TestAssessmentSensitivity(t *testing.T) {
	all := makeRegime(2000, 20, 0)
	train, test := all.Split(dataset.NewRNG(21), 0.1)
	model, _ := buildCompiled(train)
	a, err := Assess(model, train, test, "P", "Q", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MinDetectableDiff <= 0 {
		t.Errorf("MinDetectableDiff = %v, want positive", a.MinDetectableDiff)
	}
	// The detectable difference must shrink for a larger design.
	train2, test2 := all.Split(dataset.NewRNG(21), 0.5)
	model2, _ := buildCompiled(train2)
	a2, _ := Assess(model2, train2, test2, "P", "Q", Options{})
	if a2.MinDetectableDiff >= a.MinDetectableDiff {
		t.Errorf("sensitivity did not improve: %v vs %v", a2.MinDetectableDiff, a.MinDetectableDiff)
	}
	if !strings.Contains(a.String(), "sensitivity") {
		t.Error("String missing sensitivity line")
	}
}
