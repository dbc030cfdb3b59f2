package mtree

// Tests pinning batch scoring (rows, columns, leaf classification)
// against the per-sample path on the inputs most likely to expose a
// routing divergence: samples sitting exactly on a split threshold and
// one ULP to either side. The compiled comparison sends an exact tie
// left (v ≤ t), and every batch entry point must make the identical
// call at every worker count — these tests fail on the first bit that
// differs.
//
// The file also pins the depth-layered (BFS) artifact layout: a golden
// hash over the serialized form, the layering invariant itself, and
// backward compatibility with version-1 preorder artifacts.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specchar/internal/dataset"
)

// boundaryTree builds a reference tree plus its compiled form for the
// threshold-boundary tests.
func boundaryTree(t *testing.T, seed uint64) (*Tree, *CompiledTree) {
	t.Helper()
	opts := DefaultOptions()
	opts.MinLeaf = 10
	tree, err := Build(piecewiseDataset(1500, seed, 0.2), opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return tree, c
}

// boundaryDataset places samples exactly on every split threshold of c
// and one ULP to either side, in every attribute, plus tie-heavy rows
// where both coordinates are thresholds at once. These are the inputs
// where a batch scorer that compares even slightly differently from
// the scalar route (float32 rounding, flipped comparison direction,
// NaN-ordering predicates) diverges first.
func boundaryDataset(t *testing.T, c *CompiledTree, seed uint64) *dataset.Dataset {
	t.Helper()
	w := c.NumAttrs()
	d := dataset.New(c.Schema())
	r := dataset.NewRNG(seed)
	add := func(x []float64) {
		s := dataset.Sample{X: append([]float64(nil), x...), Y: r.Float64(), Label: "boundary"}
		if err := d.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	x := make([]float64, w)
	for i := range c.attrs {
		a, thr := int(c.attrs[i]), c.thresholds[i]
		for _, v := range []float64{
			thr,
			math.Nextafter(thr, math.Inf(1)),
			math.Nextafter(thr, math.Inf(-1)),
		} {
			for j := range x {
				x[j] = r.Float64()
			}
			x[a] = v
			add(x)
			// Tie-heavy: every coordinate pinned to some node's threshold.
			for j := range x {
				k := int(r.Uint64() % uint64(len(c.attrs)))
				x[j] = c.thresholds[k]
			}
			x[a] = v
			add(x)
		}
	}
	return d
}

// TestBlockedBoundaryEquivalence drives row and column batch scoring
// across worker counts over threshold-boundary data, and demands
// bit-identical predictions and leaf assignments against the scalar
// per-sample path. The compiled walk's own tie handling is held to the
// interpreted pointer tree's, an independent implementation, so a
// flipped comparison cannot pass by agreeing with itself.
func TestBlockedBoundaryEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{31, 47} {
		tree, c := boundaryTree(t, seed)
		d := boundaryDataset(t, c, seed+1)
		cols := d.Columns()

		// Scalar per-sample reference: exact f64 routing.
		wantPred := make([]float64, d.Len())
		wantLeaf := make([]int, d.Len())
		for i, s := range d.Samples {
			wantPred[i] = c.Predict(s.X)
			wantLeaf[i] = c.ClassifyLeaf(s.X)
			if id := tree.Classify(s.X).LeafID; wantLeaf[i] != id {
				t.Fatalf("seed=%d sample %d: compiled leaf %d, interpreted %d", seed, i, wantLeaf[i], id)
			}
		}

		for _, workers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("seed=%d/workers=%d", seed, workers)
			cw := c.WithWorkers(workers)
			preds := must(cw.PredictDatasetCheckedContext(ctx, d))
			leaves := must(cw.ClassifyLeavesCheckedContext(ctx, d))
			colPreds := must(cw.PredictColumnsCheckedContext(ctx, cols, d.Len()))
			for i := range wantPred {
				if math.Float64bits(preds[i]) != math.Float64bits(wantPred[i]) {
					t.Fatalf("%s: row sample %d: batch %v, scalar %v", name, i, preds[i], wantPred[i])
				}
				if math.Float64bits(colPreds[i]) != math.Float64bits(wantPred[i]) {
					t.Fatalf("%s: col sample %d: columnar %v, scalar %v", name, i, colPreds[i], wantPred[i])
				}
				if leaves[i] != wantLeaf[i] {
					t.Fatalf("%s: sample %d leaf: batch %d, scalar %d", name, i, leaves[i], wantLeaf[i])
				}
			}
		}
	}
}

// FuzzBlockedLeafIndex fuzzes the batch-vs-scalar routing
// equivalence: two seeds drive a sample generator that snaps
// coordinates onto split thresholds and their ±1 ULP neighbours, and a
// third raw float64 is injected verbatim when finite. Any divergence
// in leaf index or prediction bits between the batch entry points and
// the per-sample walk fails.
func FuzzBlockedLeafIndex(f *testing.F) {
	opts := DefaultOptions()
	opts.MinLeaf = 10
	tree, err := Build(piecewiseDataset(1500, 29, 0.2), opts)
	if err != nil {
		f.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(1), uint64(2), math.Float64bits(0.5))
	f.Add(uint64(3), uint64(4), math.Float64bits(c.thresholds[0]))
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, seedA, seedB, rawBits uint64) {
		r := dataset.NewRNG(seedA*0x9e3779b97f4a7c15 + seedB + 1)
		raw := math.Float64frombits(rawBits)
		d := dataset.New(c.Schema())
		x := make([]float64, c.NumAttrs())
		for i := 0; i < 48; i++ {
			for j := range x {
				thr := c.thresholds[int(r.Uint64())%len(c.thresholds)]
				switch r.Uint64() % 5 {
				case 0:
					x[j] = r.Float64()
				case 1:
					x[j] = thr
				case 2:
					x[j] = math.Nextafter(thr, math.Inf(1))
				case 3:
					x[j] = math.Nextafter(thr, math.Inf(-1))
				default:
					if math.IsNaN(raw) || math.IsInf(raw, 0) {
						x[j] = thr
					} else {
						x[j] = raw
					}
				}
			}
			if err := d.Append(dataset.Sample{X: append([]float64(nil), x...), Y: 0, Label: "fuzz"}); err != nil {
				t.Fatal(err)
			}
		}
		cols := d.Columns()
		ctx := context.Background()
		for _, workers := range []int{1, 4} {
			cw := c.WithWorkers(workers)
			preds := must(cw.PredictDatasetCheckedContext(ctx, d))
			colPreds := must(cw.PredictColumnsCheckedContext(ctx, cols, d.Len()))
			leaves := must(cw.ClassifyLeavesCheckedContext(ctx, d))
			for i, s := range d.Samples {
				if want := c.ClassifyLeaf(s.X); leaves[i] != want {
					t.Fatalf("workers=%d sample %d: batch leaf %d, scalar %d", workers, i, leaves[i], want)
				}
				want := c.Predict(s.X)
				if math.Float64bits(preds[i]) != math.Float64bits(want) {
					t.Fatalf("workers=%d sample %d: batch %v, scalar %v", workers, i, preds[i], want)
				}
				if math.Float64bits(colPreds[i]) != math.Float64bits(want) {
					t.Fatalf("workers=%d sample %d: columnar %v, scalar %v", workers, i, colPreds[i], want)
				}
			}
		}
	})
}

// TestFusedColumnarTinyDatasets pins the degenerate shapes batch
// chunking must not mishandle: a single sample, a single attribute, and
// short ragged batches — each bit-identical to Predict across worker
// counts, for column input and for row classification.
func TestFusedColumnarTinyDatasets(t *testing.T) {
	// Single-attribute dataset, real induced tree.
	d1 := dataset.New(&dataset.Schema{Response: "y", Attributes: []string{"a"}})
	r := dataset.NewRNG(7)
	for i := 0; i < 120; i++ {
		x := r.Float64()
		y := 2*x + 0.25
		if x > 0.5 {
			y = -x
		}
		if err := d1.Append(dataset.Sample{X: []float64{x}, Y: y, Label: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultOptions()
	opts.MinLeaf = 10
	tree, err := Build(d1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, 16, 17, d1.Len()} {
		sub := &dataset.Dataset{Schema: d1.Schema, Samples: d1.Samples[:n]}
		cols := sub.Columns()
		for _, workers := range []int{1, 2, 4, 8} {
			cw := c.WithWorkers(workers)
			preds := must(cw.PredictColumnsCheckedContext(context.Background(), cols, n))
			leaves := must(cw.ClassifyLeavesCheckedContext(context.Background(), sub))
			for i := 0; i < n; i++ {
				want := c.Predict(sub.Samples[i].X)
				if math.Float64bits(preds[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d workers=%d sample %d: %v, scalar %v", n, workers, i, preds[i], want)
				}
				if wl := c.ClassifyLeaf(sub.Samples[i].X); leaves[i] != wl {
					t.Fatalf("n=%d workers=%d sample %d: leaf %d, scalar %d", n, workers, i, leaves[i], wl)
				}
			}
		}
	}
}

// TestFusedColumnarBoundaryWorkers is the column-input slice of the
// boundary battery: exact-threshold and ±1 ULP samples, workers 1/2/4/8
// (run under -race in CI), columnar batch vs per-sample Predict, bitwise.
func TestFusedColumnarBoundaryWorkers(t *testing.T) {
	for _, seed := range []uint64{101, 211} {
		_, c := boundaryTree(t, seed)
		d := boundaryDataset(t, c, seed+3)
		cols := d.Columns()
		for _, workers := range []int{1, 2, 4, 8} {
			cw := c.WithWorkers(workers)
			preds := must(cw.PredictColumnsCheckedContext(context.Background(), cols, d.Len()))
			for i, s := range d.Samples {
				if want := c.Predict(s.X); math.Float64bits(preds[i]) != math.Float64bits(want) {
					t.Fatalf("seed=%d workers=%d sample %d: %v, scalar %v",
						seed, workers, i, preds[i], want)
				}
			}
		}
	}
}

// interiorDepths walks the compiled refs and returns each interior
// node's depth below the root.
func interiorDepths(c *CompiledTree) []int {
	depths := make([]int, len(c.attrs))
	var walk func(ref int32, depth int)
	walk = func(ref int32, depth int) {
		if ref < 0 {
			return
		}
		depths[ref] = depth
		walk(c.left[ref], depth+1)
		walk(c.right[ref], depth+1)
	}
	walk(c.rootRef, 0)
	return depths
}

// TestArtifactLayeredGolden pins the depth-layered artifact layout on
// the golden-fixture build: the serialized form is byte-deterministic,
// its SHA-256 matches the committed golden hash, the version field says
// 2, and the interior arrays really are layered — node depth never
// decreases with index, so each BFS level is one contiguous, prefetch-
// friendly slab. Run with -update after an intentional format change.
func TestArtifactLayeredGolden(t *testing.T) {
	c, err := goldenBuild(t, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	art := artifactBytes(t, c)

	c2, err := goldenBuild(t, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art, artifactBytes(t, c2)) {
		t.Fatal("two compilations of the same tree serialized differently")
	}

	if v := binary.LittleEndian.Uint32(art[len(artifactMagic):]); v != artifactVersion {
		t.Fatalf("artifact version = %d, want %d", v, artifactVersion)
	}
	depths := interiorDepths(c)
	for i := 1; i < len(depths); i++ {
		if depths[i] < depths[i-1] {
			t.Fatalf("interior %d at depth %d after interior %d at depth %d: layout is not layered",
				i, depths[i], i-1, depths[i-1])
		}
	}
	if c.rootRef != 0 {
		t.Fatalf("layered layout must place the root first, got rootRef %d", c.rootRef)
	}

	sum := sha256.Sum256(art)
	got := hex.EncodeToString(sum[:])
	path := filepath.Join("testdata", "golden_artifact.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("golden artifact hash changed:\n got %s\nwant %s\n(run with -update if intentional)", got, strings.TrimSpace(string(want)))
	}
}

// preorderV1Bytes reserializes c as a version-1 artifact: the interior
// arrays permuted into preorder, exactly how every version-1 release
// wrote them. Leaves keep their order; refs are remapped.
func preorderV1Bytes(t *testing.T, c *CompiledTree) []byte {
	t.Helper()
	perm := make([]int32, len(c.attrs)) // BFS index -> preorder index
	next := int32(0)
	var visit func(ref int32)
	visit = func(ref int32) {
		if ref < 0 {
			return
		}
		perm[ref] = next
		next++
		visit(c.left[ref])
		visit(c.right[ref])
	}
	visit(c.rootRef)
	if int(next) != len(c.attrs) {
		t.Fatalf("preorder walk reached %d of %d interiors", next, len(c.attrs))
	}
	remap := func(r int32) int32 {
		if r >= 0 {
			return perm[r]
		}
		return r
	}
	attrs := make([]int32, len(c.attrs))
	thresholds := make([]float64, len(c.thresholds))
	left := make([]int32, len(c.left))
	right := make([]int32, len(c.right))
	for old := range c.attrs {
		attrs[perm[old]] = c.attrs[old]
		thresholds[perm[old]] = c.thresholds[old]
		left[perm[old]] = remap(c.left[old])
		right[perm[old]] = remap(c.right[old])
	}

	buf := append([]byte(nil), artifactMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, artifactVersionPreorder)
	if c.smooth {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, c.schema.Response)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.schema.Attributes)))
	for _, a := range c.schema.Attributes {
		buf = appendString(buf, a)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(attrs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.intercepts)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(remap(c.rootRef)))
	for _, v := range attrs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range thresholds {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range left {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range right {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range c.intercepts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range c.coefs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestArtifactPreorderV1Loads is the compatibility gate: a version-1
// preorder artifact — the layout every release before the layered
// format deployed — must still load and score bit-identically to its
// layered equivalent, through the scalar path and batch scoring alike.
func TestArtifactPreorderV1Loads(t *testing.T) {
	_, c := boundaryTree(t, 31)
	v1, err := ReadCompiled(bytes.NewReader(preorderV1Bytes(t, c)))
	if err != nil {
		t.Fatalf("ReadCompiled rejected a v1 preorder artifact: %v", err)
	}
	if v1.NumLeaves() != c.NumLeaves() || v1.NumNodes() != c.NumNodes() {
		t.Fatalf("v1 shape %d leaves/%d nodes, want %d/%d",
			v1.NumLeaves(), v1.NumNodes(), c.NumLeaves(), c.NumNodes())
	}
	d := boundaryDataset(t, c, 99)
	for _, workers := range []int{1, 4} {
		vw := v1.WithWorkers(workers)
		preds := must(vw.PredictDatasetCheckedContext(context.Background(), d))
		leaves := must(vw.ClassifyLeavesCheckedContext(context.Background(), d))
		for i, s := range d.Samples {
			if want := c.Predict(s.X); math.Float64bits(preds[i]) != math.Float64bits(want) {
				t.Fatalf("workers=%d sample %d: v1 %v, v2 %v", workers, i, preds[i], want)
			}
			if want := c.ClassifyLeaf(s.X); leaves[i] != want {
				t.Fatalf("workers=%d sample %d: v1 leaf %d, v2 leaf %d", workers, i, leaves[i], want)
			}
		}
	}
}
