package specchar

import (
	"context"
	"math"
	"testing"

	"specchar/internal/characterize"
	"specchar/internal/dataset"
	"specchar/internal/mtree"
	"specchar/internal/suites"
)

// compiledTol is the compiled/interpreted equivalence bound: identical
// arithmetic composed in a different association order, so only float
// rounding separates the two paths.
func compiledTol(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// TestCompiledMatchesInterpretedOnSuites is the end-to-end equivalence
// acceptance test: on both generated SPEC suites, the compiled flat-array
// scorer must reproduce the interpreted pointer-tree predictions and leaf
// classifications, at several worker counts, with smoothing on and off.
func TestCompiledMatchesInterpretedOnSuites(t *testing.T) {
	gen := suites.DefaultGenOptions()
	gen.SamplesPerBenchmark = 60
	gen.OpsPerWindow = 512
	gen.WarmupOps = 8000
	for _, sc := range []struct {
		name  string
		suite *suites.Suite
	}{
		{"cpu2006", suites.CPU2006()},
		{"omp2001", suites.OMP2001()},
	} {
		d, err := suites.Generate(sc.suite, gen)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		for _, smooth := range []bool{true, false} {
			opts := mtree.DefaultOptions()
			opts.MinLeaf = 10
			opts.Smooth = smooth
			tree, err := mtree.Build(d, opts)
			if err != nil {
				t.Fatalf("%s smooth=%v: %v", sc.name, smooth, err)
			}
			ctree, err := tree.Compile()
			if err != nil {
				t.Fatalf("%s smooth=%v: Compile: %v", sc.name, smooth, err)
			}
			for _, workers := range []int{1, 4, 0} {
				cw := ctree.WithWorkers(workers)
				preds, err := cw.PredictDatasetCheckedContext(context.Background(), d)
				if err != nil {
					t.Fatal(err)
				}
				leaves, err := cw.ClassifyLeavesCheckedContext(context.Background(), d)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range d.Samples {
					if want := tree.Predict(s.X); !compiledTol(preds[i], want) {
						t.Fatalf("%s smooth=%v workers=%d sample %d: compiled %v, interpreted %v",
							sc.name, smooth, workers, i, preds[i], want)
					}
					if want := tree.Classify(s.X).LeafID; leaves[i] != want {
						t.Fatalf("%s smooth=%v workers=%d sample %d: leaf %d, want %d",
							sc.name, smooth, workers, i, leaves[i], want)
					}
				}
			}
		}
	}
}

// TestCompiledProfilesMatchInterpreted checks the characterization layer
// end to end: profiles computed through the compiled classifier must be
// identical (same leaf tallies, not merely close) to those computed
// through the interpreted tree, since classification is exact.
func TestCompiledProfilesMatchInterpreted(t *testing.T) {
	gen := suites.DefaultGenOptions()
	gen.SamplesPerBenchmark = 60
	gen.OpsPerWindow = 512
	gen.WarmupOps = 8000
	d, err := suites.Generate(suites.CPU2006(), gen)
	if err != nil {
		t.Fatal(err)
	}
	opts := mtree.DefaultOptions()
	opts.MinLeaf = 10
	tree, err := mtree.Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	interp, err := characterize.SuiteProfiles(tree, d)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := characterize.SuiteProfiles(ctree, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(interp) != len(compiled) {
		t.Fatalf("profile counts differ: %d vs %d", len(interp), len(compiled))
	}
	for i := range interp {
		if interp[i].Name != compiled[i].Name || interp[i].N != compiled[i].N {
			t.Fatalf("profile %d: %s/%d vs %s/%d",
				i, interp[i].Name, interp[i].N, compiled[i].Name, compiled[i].N)
		}
		for j := range interp[i].Shares {
			if interp[i].Shares[j] != compiled[i].Shares[j] {
				t.Fatalf("profile %s leaf %d: share %v vs %v",
					interp[i].Name, j+1, interp[i].Shares[j], compiled[i].Shares[j])
			}
		}
	}
}

// TestStudyCompiledFields pins that NewStudy produces compiled forms
// consistent with their pointer trees.
func TestStudyCompiledFields(t *testing.T) {
	s, err := NewStudy(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tree *mtree.Tree
		c    *mtree.CompiledTree
		d    *dataset.Dataset
	}{
		{"CPUTree", s.CPUTree, s.CPUTreeCompiled, s.CPU},
		{"OMPTree", s.OMPTree, s.OMPTreeCompiled, s.OMP},
		{"CPUModel", s.CPUModel, s.CPUModelCompiled, s.CPUTest},
		{"OMPModel", s.OMPModel, s.OMPModelCompiled, s.OMPTest},
	} {
		if tc.c == nil {
			t.Fatalf("%s: compiled form is nil", tc.name)
		}
		if got, want := tc.c.NumLeaves(), tc.tree.NumLeaves(); got != want {
			t.Errorf("%s: compiled NumLeaves = %d, tree %d", tc.name, got, want)
		}
		for _, s := range tc.d.Samples[:min(50, tc.d.Len())] {
			if got, want := tc.c.Predict(s.X), tc.tree.Predict(s.X); !compiledTol(got, want) {
				t.Fatalf("%s: compiled %v, interpreted %v", tc.name, got, want)
			}
		}
	}
}
