package baselines

import (
	"math"
	"testing"

	"specchar/internal/dataset"
)

func schema2() *dataset.Schema {
	return &dataset.Schema{Response: "y", Attributes: []string{"a", "b"}}
}

// linearData draws y = 2 + 3a - b + noise.
func linearData(n int, seed uint64, noise float64) *dataset.Dataset {
	d := dataset.New(schema2())
	r := dataset.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		y := 2 + 3*a - b + (r.Float64()-0.5)*noise
		_ = d.Append(dataset.Sample{X: []float64{a, b}, Y: y, Label: "lin"})
	}
	return d
}

// piecewiseData has a regime switch at a = 0.5, which a global linear
// model cannot capture.
func piecewiseData(n int, seed uint64) *dataset.Dataset {
	d := dataset.New(schema2())
	r := dataset.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		y := 1 + b
		if a > 0.5 {
			y = 8 - 2*b
		}
		y += (r.Float64() - 0.5) * 0.05
		_ = d.Append(dataset.Sample{X: []float64{a, b}, Y: y, Label: "pw"})
	}
	return d
}

func mae(m Regressor, d *dataset.Dataset) float64 {
	var s float64
	for _, smp := range d.Samples {
		s += math.Abs(m.Predict(smp.X) - smp.Y)
	}
	return s / float64(d.Len())
}

func TestLinearOnLinearData(t *testing.T) {
	train := linearData(500, 1, 0.02)
	test := linearData(200, 2, 0.02)
	m, err := TrainLinear(train)
	if err != nil {
		t.Fatal(err)
	}
	if got := mae(m, test); got > 0.02 {
		t.Errorf("linear MAE on linear data = %v", got)
	}
	if m.Name() == "" {
		t.Error("metadata missing")
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := TrainLinear(dataset.New(schema2())); err != ErrNoData {
		t.Errorf("err = %v", err)
	}
}

func TestKNNRecoversLocalStructure(t *testing.T) {
	train := piecewiseData(1500, 3)
	test := piecewiseData(300, 4)
	knn, err := TrainKNN(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := mae(knn, test); got > 0.25 {
		t.Errorf("kNN MAE on piecewise data = %v", got)
	}
	// A global linear model must be far worse here.
	lin, _ := TrainLinear(train)
	if mae(lin, test) < 2*mae(knn, test) {
		t.Errorf("linear (%v) unexpectedly rivals kNN (%v) on piecewise data",
			mae(lin, test), mae(knn, test))
	}
}

func TestKNNK1ReproducesTrainingPoints(t *testing.T) {
	train := linearData(100, 5, 0.1)
	knn, err := TrainKNN(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range train.Samples[:20] {
		if got := knn.Predict(smp.X); got != smp.Y {
			t.Fatalf("1-NN on a training point = %v, want %v", got, smp.Y)
		}
	}
}

func TestKNNValidation(t *testing.T) {
	if _, err := TrainKNN(dataset.New(schema2()), 3); err != ErrNoData {
		t.Errorf("err = %v", err)
	}
	if _, err := TrainKNN(linearData(10, 6, 0), 0); err == nil {
		t.Error("k=0 should error")
	}
	// k > n clamps.
	knn, err := TrainKNN(linearData(5, 7, 0), 50)
	if err != nil {
		t.Fatal(err)
	}
	if knn.k != 5 {
		t.Errorf("k not clamped: %d", knn.k)
	}
}

func TestKNNName(t *testing.T) {
	knn, _ := TrainKNN(linearData(20, 8, 0), 3)
	if knn.Name() != "3-nearest neighbours" {
		t.Errorf("Name = %q", knn.Name())
	}
}

func TestMLPLearnsLinear(t *testing.T) {
	train := linearData(800, 9, 0.02)
	test := linearData(200, 10, 0.02)
	mlp, err := TrainMLP(train, MLPConfig{Hidden: 8, Epochs: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := mae(mlp, test); got > 0.15 {
		t.Errorf("MLP MAE on linear data = %v", got)
	}
}

func TestMLPLearnsPiecewise(t *testing.T) {
	train := piecewiseData(2000, 11)
	test := piecewiseData(300, 12)
	mlp, err := TrainMLP(train, MLPConfig{Hidden: 24, Epochs: 300, LearnRate: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mlpMAE := mae(mlp, test)
	lin, _ := TrainLinear(train)
	linMAE := mae(lin, test)
	if mlpMAE >= linMAE {
		t.Errorf("MLP (%v) not better than linear (%v) on piecewise data", mlpMAE, linMAE)
	}
}

func TestMLPDeterministic(t *testing.T) {
	train := linearData(200, 13, 0.1)
	m1, _ := TrainMLP(train, MLPConfig{Hidden: 4, Epochs: 20, Seed: 3})
	m2, _ := TrainMLP(train, MLPConfig{Hidden: 4, Epochs: 20, Seed: 3})
	probe := []float64{0.3, 0.7}
	if m1.Predict(probe) != m2.Predict(probe) {
		t.Error("MLP training not deterministic")
	}
}

func TestMLPDefaultsAndErrors(t *testing.T) {
	if _, err := TrainMLP(dataset.New(schema2()), MLPConfig{}); err != ErrNoData {
		t.Errorf("err = %v", err)
	}
	m, err := TrainMLP(linearData(50, 14, 0.1), MLPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.hidden != 16 {
		t.Errorf("default hidden = %d", m.hidden)
	}
	if m.Name() != "MLP (16 hidden units)" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestMLPConstantResponse(t *testing.T) {
	d := dataset.New(schema2())
	r := dataset.NewRNG(15)
	for i := 0; i < 60; i++ {
		_ = d.Append(dataset.Sample{X: []float64{r.Float64(), r.Float64()}, Y: 7})
	}
	m, err := TrainMLP(d, MLPConfig{Hidden: 4, Epochs: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.5, 0.5}); math.Abs(got-7) > 0.2 {
		t.Errorf("constant-response prediction = %v, want ~7", got)
	}
}

func TestRegressorInterfaceCompliance(t *testing.T) {
	train := linearData(60, 16, 0.1)
	var models []Regressor
	if lin, err := TrainLinear(train); err == nil {
		models = append(models, lin)
	}
	if knn, err := TrainKNN(train, 3); err == nil {
		models = append(models, knn)
	}
	if mlp, err := TrainMLP(train, MLPConfig{Hidden: 4, Epochs: 10}); err == nil {
		models = append(models, mlp)
	}
	if len(models) != 3 {
		t.Fatalf("trained %d models", len(models))
	}
	for _, m := range models {
		if math.IsNaN(m.Predict([]float64{0.5, 0.5})) {
			t.Errorf("%s produced NaN", m.Name())
		}
	}
}

func TestBaggedReducesVariance(t *testing.T) {
	// Noisy piecewise data: a bagged ensemble of overfit 1-NN members
	// must beat a single 1-NN on held-out data.
	train := piecewiseData(800, 21)
	noisy := dataset.New(train.Schema)
	r := dataset.NewRNG(22)
	for _, s := range train.Samples {
		s2 := s
		s2.Y += r.Normal(0, 0.4)
		noisy.Samples = append(noisy.Samples, s2)
	}
	test := piecewiseData(400, 23)
	single, err := TrainKNN(noisy, 1)
	if err != nil {
		t.Fatal(err)
	}
	bag, err := TrainBagged(noisy, 15, 7, func(d *dataset.Dataset) (Regressor, error) {
		return TrainKNN(d, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bag.members) != 15 {
		t.Errorf("members = %d, want 15", len(bag.members))
	}
	if mae(bag, test) >= mae(single, test) {
		t.Errorf("bagging did not help: bag %v vs single %v", mae(bag, test), mae(single, test))
	}
	if bag.Name() == "" {
		t.Error("empty name")
	}
}

func TestBaggedDeterministic(t *testing.T) {
	d := linearData(200, 24, 0.2)
	mk := func() *Bagged {
		b, err := TrainBagged(d, 5, 9, func(r *dataset.Dataset) (Regressor, error) {
			return TrainLinear(r)
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := mk(), mk()
	probe := []float64{0.4, 0.6}
	if b1.Predict(probe) != b2.Predict(probe) {
		t.Error("bagging not deterministic")
	}
}

func TestBaggedErrors(t *testing.T) {
	if _, err := TrainBagged(dataset.New(schema2()), 3, 1, nil); err != ErrNoData {
		t.Errorf("err = %v", err)
	}
	d := linearData(20, 25, 0.1)
	if _, err := TrainBagged(d, 0, 1, nil); err == nil {
		t.Error("zero members should error")
	}
	if _, err := TrainBagged(d, 2, 1, func(*dataset.Dataset) (Regressor, error) {
		return nil, ErrNoData
	}); err == nil {
		t.Error("member training failure should propagate")
	}
}
