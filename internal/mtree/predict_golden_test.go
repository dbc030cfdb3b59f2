package mtree

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
)

// TestPredictionBitsGolden pins the exact IEEE-754 bits batch scoring
// returns for the committed golden tree on its training data: the
// SHA-256 of the row predictions, the column predictions and the leaf
// assignments must match testdata/golden_predict_bits.txt at every
// worker count. The digests fix dotRow's eight-lane FMA schedule and the
// routing comparisons directly, so any change to either — not only one
// that breaks agreement between two scorers — fails here. Run with
// -update only for an intentional change to the scoring arithmetic.
func TestPredictionBitsGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_tree.json"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	d := piecewiseDataset(1200, 17, 0.25)
	cols := d.Columns()
	ctx := context.Background()
	var got string
	for _, workers := range []int{1, 4} {
		cw := c.WithWorkers(workers)
		rows := must(cw.PredictDatasetCheckedContext(ctx, d))
		colPreds := must(cw.PredictColumnsCheckedContext(ctx, cols, d.Len()))
		leaves := must(cw.ClassifyLeavesCheckedContext(ctx, d))
		digests := fmt.Sprintf("rows %s\ncols %s\nleaves %s\n",
			floatBitsDigest(rows), floatBitsDigest(colPreds), leafDigest(leaves))
		if got != "" && digests != got {
			t.Fatalf("workers=%d digests differ from workers=1:\n%s\nvs\n%s", workers, digests, got)
		}
		got = digests
	}

	path := filepath.Join("testdata", "golden_predict_bits.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("prediction bits changed:\n got %s\nwant %s", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

// floatBitsDigest hashes the little-endian bit patterns of xs.
func floatBitsDigest(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// leafDigest hashes leaf ids as little-endian uint64s.
func leafDigest(ids []int) string {
	h := sha256.New()
	var b [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
