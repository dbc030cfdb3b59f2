package transfer_test

import (
	"fmt"

	"specchar/internal/dataset"
	"specchar/internal/mtree"
	"specchar/internal/transfer"
)

// linear draws n samples from the same noiseless law y = 1 + 2a - b, so
// a model trained on one draw must transfer to another.
func linear(n int, seed uint64) *dataset.Dataset {
	d := dataset.New(&dataset.Schema{Response: "y", Attributes: []string{"a", "b"}})
	r := dataset.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		_ = d.Append(dataset.Sample{X: []float64{a, b}, Y: 1 + 2*a - b, Label: "bench"})
	}
	return d
}

// shifted draws n samples from y = 1 + 2a - b + shift: the same law as
// linear with the response distribution moved, modelling a far-away
// suite generation.
func shifted(n int, seed uint64, shift float64) *dataset.Dataset {
	d := dataset.New(&dataset.Schema{Response: "y", Attributes: []string{"a", "b"}})
	r := dataset.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		_ = d.Append(dataset.Sample{X: []float64{a, b}, Y: 1 + 2*a - b + shift, Label: "bench"})
	}
	return d
}

// ExampleMatrixAssess runs the N×N cross-generation experiment: every
// suite's model is trained on its own 10% share and applied to every
// suite's held-out share. Here "old" and "new" follow the same law, so
// the whole 2×2 grid transfers; adding a shifted third suite would break
// its row and column (see the `specchar matrix` subcommand for the
// four-generation zoo).
func ExampleMatrixAssess() {
	zoo := []transfer.MatrixSuite{
		{Name: "SPEC old", Data: linear(2000, 11)},
		{Name: "SPEC new", Data: shifted(2000, 22, 0)},
	}
	m, err := transfer.MatrixAssess(zoo, transfer.MatrixOptions{SplitSeed: 1962})
	if err != nil {
		panic(err)
	}
	for i, train := range m.Suites {
		for j, test := range m.Suites {
			fmt.Printf("%s -> %s: transferable=%v\n", train, test, m.Cells[i][j].Transferable)
		}
	}
	// Output:
	// SPEC old -> SPEC old: transferable=true
	// SPEC old -> SPEC new: transferable=true
	// SPEC new -> SPEC old: transferable=true
	// SPEC new -> SPEC new: transferable=true
}

// ExampleAssess trains a model tree on one sample of a workload
// population and assesses whether it transfers to a second, independent
// sample — the paper's Section VI battery: hypothesis tests on the
// response distributions plus accuracy thresholds on the predictions.
func ExampleAssess() {
	train, test := linear(300, 1), linear(150, 2)

	tree, err := mtree.Build(train, mtree.DefaultOptions())
	if err != nil {
		panic(err)
	}
	compiled, err := tree.Compile()
	if err != nil {
		panic(err)
	}
	a, err := transfer.Assess(compiled, train, test, "draw1", "draw2", transfer.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("hypothesis tests pass: %v\n", a.HypothesisTransferable())
	fmt.Printf("accuracy thresholds pass: %v\n", a.MetricsTransferable())
	fmt.Printf("transferable: %v\n", a.Transferable())
	// Output:
	// hypothesis tests pass: true
	// accuracy thresholds pass: true
	// transferable: true
}
