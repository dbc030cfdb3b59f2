package mtree

import (
	"context"
	"fmt"
	"math"
	"testing"

	"specchar/internal/dataset"
)

// naiveTranspose is the obvious reference gatherTile must match.
func naiveTranspose(cols [][]float64, lo, n, w int) []float64 {
	out := make([]float64, n*w)
	for l := 0; l < n; l++ {
		for j := 0; j < w; j++ {
			out[l*w+j] = cols[j][lo+l]
		}
	}
	return out
}

// synthCols builds w columns of total samples with recognizable values
// (encoding (j, i) in the bits) plus injected specials: ±0, a NaN
// payload spot, and denormals — the transpose must move bit patterns,
// not values.
func synthCols(w, total int, seed uint64) [][]float64 {
	r := dataset.NewRNG(seed)
	cols := make([][]float64, w)
	for j := range cols {
		cols[j] = make([]float64, total)
		for i := range cols[j] {
			switch r.Uint64() % 8 {
			case 0:
				cols[j][i] = math.Copysign(0, -1)
			case 1:
				cols[j][i] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(j)<<16 | uint64(i)&0xffff)
			case 2:
				cols[j][i] = math.Float64frombits(uint64(j)*1_000_003 + uint64(i) + 1) // denormal-range
			default:
				cols[j][i] = float64(j)*1e6 + float64(i) + r.Float64()
			}
		}
	}
	return cols
}

// TestTransposeChunkShapes drives the tile gather across ragged tails
// (n % laneBlock ≠ 0), single-sample and single-attribute extremes,
// attribute counts straddling the transAttrBlock boundary, and offsets
// that are and are not tile-aligned — demanding bit-exact agreement
// with the naive transpose.
func TestTransposeChunkShapes(t *testing.T) {
	for _, w := range []int{1, 2, 7, 8, 26, transAttrBlock - 1, transAttrBlock, transAttrBlock + 1, 2*transAttrBlock + 3} {
		for _, n := range []int{1, 2, 15, 16, 17, 31, 33, 100, blockedChunk} {
			for _, lo := range []int{0, 1, laneBlock, laneBlock + 5} {
				total := lo + n
				cols := synthCols(w, total, uint64(w*1000+n*10+lo))
				buf := make([]float64, n*w)
				transposeChunk(cols, lo, n, w, buf)
				want := naiveTranspose(cols, lo, n, w)
				for k := range want {
					if math.Float64bits(buf[k]) != math.Float64bits(want[k]) {
						t.Fatalf("w=%d n=%d lo=%d: buf[%d] = %x, want %x",
							w, n, lo, k, math.Float64bits(buf[k]), math.Float64bits(want[k]))
					}
				}
			}
		}
	}
}

// TestSampleRowsReuse checks the pooled scratch discipline: headers are
// rebuilt for every (n, w) request, never alias stale geometry, and the
// rows tile the buffer without gaps or overlap.
func TestSampleRowsReuse(t *testing.T) {
	sc := new(predictScratch)
	for _, shape := range []struct{ n, w int }{{16, 26}, {512, 26}, {16, 4}, {3, 200}, {1, 1}, {512, 64}} {
		rows := sc.sampleRows(shape.n, shape.w)
		if len(rows) != shape.n {
			t.Fatalf("sampleRows(%d, %d): %d headers", shape.n, shape.w, len(rows))
		}
		for l, s := range rows {
			if len(s.X) != shape.w {
				t.Fatalf("sampleRows(%d, %d): row %d width %d", shape.n, shape.w, l, len(s.X))
			}
			if &s.X[0] != &sc.rowbuf[l*shape.w] {
				t.Fatalf("sampleRows(%d, %d): row %d does not alias the scratch slab", shape.n, shape.w, l)
			}
		}
	}
}

// TestFusedColumnarTinyDatasets pins the degenerate shapes the blocked
// grid must not mishandle: a single sample, a single attribute, and a
// single-leaf (rootless-interior) tree — each bit-identical to Predict
// across worker counts.
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

// TestFusedColumnarBoundaryWorkers is the transpose-route slice of the
// boundary battery: exact-threshold and ±1 ULP samples, workers 1/2/4/8
// (run under -race in CI), fused-columnar vs per-sample Predict, bitwise.
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

// FuzzTransposeGather fuzzes the tile gather against the naive
// transpose over arbitrary shapes and raw float64 bit patterns
// (including NaNs, infinities, denormals — the gather must be a pure
// bit move), then cross-checks the fused-columnar scorer against
// per-sample Predict on a small fixed tree when the shape fits it.
func FuzzTransposeGather(f *testing.F) {
	opts := DefaultOptions()
	opts.MinLeaf = 10
	tree, err := Build(piecewiseDataset(900, 17, 0.2), opts)
	if err != nil {
		f.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		f.Fatal(err)
	}
	w := c.NumAttrs()

	f.Add(uint8(16), uint8(4), uint64(1), math.Float64bits(0.5))
	f.Add(uint8(1), uint8(1), uint64(2), math.Float64bits(math.Inf(1)))
	f.Add(uint8(0), uint8(0), uint64(0), uint64(0))
	f.Add(uint8(65), uint8(130), uint64(3), uint64(1)) // denormal
	f.Fuzz(func(t *testing.T, nRaw, wRaw uint8, seed, rawBits uint64) {
		n := int(nRaw)%70 + 1
		fw := int(wRaw)%(2*transAttrBlock+2) + 1
		raw := math.Float64frombits(rawBits)
		cols := synthCols(fw, n, seed)
		cols[seed%uint64(fw)][seed%uint64(n)] = raw
		buf := make([]float64, n*fw)
		transposeChunk(cols, 0, n, fw, buf)
		want := naiveTranspose(cols, 0, n, fw)
		for k := range want {
			if math.Float64bits(buf[k]) != math.Float64bits(want[k]) {
				t.Fatalf("n=%d w=%d: buf[%d] bits %x, want %x", n, fw, k,
					math.Float64bits(buf[k]), math.Float64bits(want[k]))
			}
		}

		// Scoring cross-check on the real tree's width, snapping the raw
		// value in when finite so threshold-adjacent bits exercise the
		// fused kernel's exact-fallback route.
		r := dataset.NewRNG(seed + 42)
		d := dataset.New(c.Schema())
		x := make([]float64, w)
		for i := 0; i < n; i++ {
			for j := range x {
				thr := c.thresholds[r.Uint64()%uint64(len(c.thresholds))]
				switch r.Uint64() % 4 {
				case 0:
					x[j] = thr
				case 1:
					x[j] = math.Nextafter(thr, math.Inf(-1))
				case 2:
					if !math.IsNaN(raw) && !math.IsInf(raw, 0) {
						x[j] = raw
					} else {
						x[j] = math.Nextafter(thr, math.Inf(1))
					}
				default:
					x[j] = r.Float64()
				}
			}
			if err := d.Append(dataset.Sample{X: append([]float64(nil), x...), Y: 0, Label: "fz"}); err != nil {
				t.Fatal(err)
			}
		}
		dcols := d.Columns()
		for _, workers := range []int{1, 4} {
			preds := must(c.WithWorkers(workers).PredictColumnsCheckedContext(context.Background(), dcols, d.Len()))
			for i, s := range d.Samples {
				if want := c.Predict(s.X); math.Float64bits(preds[i]) != math.Float64bits(want) {
					t.Fatalf("workers=%d sample %d: fused-columnar %v, scalar %v", workers, i, preds[i], want)
				}
			}
		}
	})
}

// BenchmarkTransposeChunk times the bare tile gather at scoring-chunk
// geometry (512 samples × 26 attributes, the CPU2006 shape) — the
// overhead the fused-columnar route pays over row-major scoring.
func BenchmarkTransposeChunk(b *testing.B) {
	const w = 26
	cols := synthCols(w, blockedChunk, 1)
	buf := make([]float64, blockedChunk*w)
	b.SetBytes(int64(blockedChunk * w * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transposeChunk(cols, 0, blockedChunk, w, buf)
	}
	_ = fmt.Sprint(buf[0])
}
