package specchar

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// rowClassifier classifies through the pointer tree one row at a time:
// the reference for the compiled batch classifier.
type rowClassifier struct{ *mtree.Tree }

func (r rowClassifier) ClassifyLeavesCheckedContext(_ context.Context, d *dataset.Dataset) ([]int, error) {
	out := make([]int, d.Len())
	for i, s := range d.Samples {
		out[i] = r.Classify(s.X).LeafID
	}
	return out, nil
}

// TestCompiledProfilesMatchInterpreted checks the characterization layer
// end to end: profiles computed through the compiled classifier must be
// identical (same leaf tallies, not merely close) to those computed
// through the interpreted tree's per-row Classify, since classification
// is exact.
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
	interp, err := characterize.SuiteProfiles(rowClassifier{tree}, d)
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

// TestPredictionBitsGoldenOnSuites pins the exact bits compiled batch
// scoring returns for the committed golden trees on their quick suites:
// the SHA-256 of the row predictions, the column predictions and the
// leaf assignments of each suite must match
// testdata/golden_predict_bits.txt at every worker count. Served scores,
// transfer verdicts and the results atlas all rest on these bits. Run
// with -update only for an intentional change to the scoring arithmetic.
func TestPredictionBitsGoldenOnSuites(t *testing.T) {
	gen := suites.DefaultGenOptions()
	gen.SamplesPerBenchmark = 60
	gen.OpsPerWindow = 512
	gen.WarmupOps = 8000
	var got strings.Builder
	for _, sc := range []struct {
		name    string
		suite   *suites.Suite
		fixture string
	}{
		{"cpu2006", suites.CPU2006(), "golden_cpu2006_tree.json"},
		{"omp2001", suites.OMP2001(), "golden_omp2001_tree.json"},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", sc.fixture))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := mtree.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		ctree, err := tree.Compile()
		if err != nil {
			t.Fatal(err)
		}
		d, err := suites.Generate(sc.suite, gen)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		cols := d.Columns()
		ctx := context.Background()
		var first string
		for _, workers := range []int{1, 4} {
			cw := ctree.WithWorkers(workers)
			rows, err := cw.PredictDatasetCheckedContext(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			colPreds, err := cw.PredictColumnsCheckedContext(ctx, cols, d.Len())
			if err != nil {
				t.Fatal(err)
			}
			leaves, err := cw.ClassifyLeavesCheckedContext(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			leafBits := make([]uint64, len(leaves))
			for i, l := range leaves {
				leafBits[i] = uint64(l)
			}
			digests := fmt.Sprintf("%[1]s rows %[2]s\n%[1]s cols %[3]s\n%[1]s leaves %[4]s\n", sc.name,
				bitsDigest(floatBits(rows)), bitsDigest(floatBits(colPreds)), bitsDigest(leafBits))
			if first != "" && digests != first {
				t.Fatalf("workers=%d digests differ from workers=1:\n%s\nvs\n%s", workers, digests, first)
			}
			first = digests
		}
		got.WriteString(first)
	}

	path := filepath.Join("testdata", "golden_predict_bits.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("prediction bits changed:\n got %s\nwant %s", strings.TrimSpace(got.String()), strings.TrimSpace(string(want)))
	}
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// bitsDigest is the SHA-256 of the words in little-endian order.
func bitsDigest(words []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
