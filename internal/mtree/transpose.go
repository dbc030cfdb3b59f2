package mtree

// Tile transpose: the bridge that lets column-major data ride the fused
// row kernels.
//
// The .spcol columnar layout is ideal for ingest (zero-parse, one mmap)
// but the fast scoring kernel is row-major: the fused AVX-512 scorer of
// fmadot_amd64.s wants each sample's attributes contiguous so it can
// box-test and dot-accumulate them in one register-resident pass. An
// in-place broadcast kernel over the columns ran ~4× behind fused rows
// (BENCH_PR10.json), so instead of porting the fused kernel to a second
// data layout the columnar path gathers laneBlock-sample × all-attribute
// tiles from the column slabs into pooled row-major scratch and feeds
// the existing row kernels.
//
// Blocking: one tile is laneBlock (16) samples wide, so a gather reads
// 16 consecutive float64s (two cache lines) from each column and writes
// a 16×w row block. The write footprint of a tile is bounded by
// transAttrBlock attributes per pass — 16 rows × 64 attrs × 8 B = 8 KiB,
// comfortably L1-resident — so wide schemas re-touch hot lines instead
// of streaming the whole row block per attribute. The scratch never
// exceeds one scoring chunk (blockedChunk × width floats, pooled via
// scratchPool), so no full row-major matrix is ever materialized.
//
// Equivalence: the transpose moves bits, the row kernels do the math.
// Fused-columnar predictions are therefore bit-identical to per-sample
// Predict — same routing, same eight-lane FMA dot schedule — at every
// worker count, asm or pure Go.

import (
	"unsafe"

	"specchar/internal/dataset"
)

// transAttrBlock bounds the attributes gathered per tile pass, keeping
// one pass's write footprint (laneBlock × transAttrBlock × 8 B) inside
// L1 for arbitrarily wide schemas.
const transAttrBlock = 64

// colSubChunk is the sub-chunk the columnar route transposes and scores
// at a time: 128 samples × a CPU2006-width schema ≈ 20 KiB of scratch,
// small enough that the gather's stores and the row kernel's re-read
// both stay in L1. A multiple of laneBlock (and a divisor of
// blockedChunk), so sub-chunking never moves a tile boundary off the
// row path's block grid.
const colSubChunk = 128

// gatherTile transposes n column-major samples starting at lo into
// row-major buf: buf[l*w+j] = cols[j][lo+l]. buf must hold at least n·w
// floats — the callers size it from the pooled scratch — and n should
// stay within colSubChunk so the write footprint (one resident cache
// line per row) fits L1.
//
// Four columns interleave per pass, so each row receives one 32-byte
// burst per pass and the row block's active lines stay hot across a
// transAttrBlock span, while each column is read as one sequential
// n-element stretch with bounds checks hoisted by the reslice. Stores go
// through raw pointers in the same spirit as the fused scorer's unsafe
// base+stride walk — the offset arithmetic is bounded by the n·w
// precondition ((n-1)·w + j+3 < n·w whenever j+4 ≤ w), and the tests in
// transpose_test.go pin the gather bit-for-bit against the naive
// transpose across ragged shapes and raw bit patterns.
func gatherTile(cols [][]float64, lo, n, w int, buf []float64) {
	if n == 0 || w == 0 {
		return
	}
	base := unsafe.Pointer(&buf[0])
	stride := uintptr(w) * 8
	for jb := 0; jb < w; jb += transAttrBlock {
		je := min(jb+transAttrBlock, w)
		j := jb
		for ; j+4 <= je; j += 4 {
			c0 := cols[j][lo : lo+n]
			c1 := cols[j+1][lo : lo+n]
			c2 := cols[j+2][lo : lo+n]
			c3 := cols[j+3][lo : lo+n]
			p := unsafe.Add(base, uintptr(j)*8)
			for l := 0; l < n; l++ {
				q := (*[4]float64)(p)
				q[0], q[1], q[2], q[3] = c0[l], c1[l], c2[l], c3[l]
				p = unsafe.Add(p, stride)
			}
		}
		for ; j < je; j++ {
			col := cols[j][lo : lo+n]
			p := unsafe.Add(base, uintptr(j)*8)
			for l := 0; l < n; l++ {
				*(*float64)(p) = col[l]
				p = unsafe.Add(p, stride)
			}
		}
	}
}

// transposeChunk gathers n column-major samples starting at lo into
// row-major buf (n·w floats), colSubChunk samples at a time so each
// gather's write set stays L1-resident even when a caller hands in a
// larger span.
func transposeChunk(cols [][]float64, lo, n, w int, buf []float64) {
	for t := 0; t < n; t += colSubChunk {
		tn := min(colSubChunk, n-t)
		gatherTile(cols, lo+t, tn, w, buf[t*w:(t+tn)*w])
	}
}

// sampleRows sizes the scratch row matrix to n×w and returns n sample
// headers aliasing its rows, ready for the row-major kernels. Header
// construction writes a pointer field per row — a GC write barrier each
// — so headers are built once for the whole buffer capacity and reused
// until the buffer is reallocated or a recycled scratch comes back with
// a different width (rowsW tracks the built geometry). A ragged final
// chunk then reslices instead of rebuilding.
func (s *predictScratch) sampleRows(n, w int) []dataset.Sample {
	need := n * w
	if cap(s.rowbuf) < need {
		s.rowbuf = make([]float64, need)
		s.rowsW = 0
	}
	s.rowbuf = s.rowbuf[:cap(s.rowbuf)]
	if w != s.rowsW || len(s.rows) < n {
		nrows := len(s.rowbuf) / w
		if cap(s.rows) < nrows {
			s.rows = make([]dataset.Sample, nrows)
		}
		s.rows = s.rows[:nrows]
		for l := 0; l < nrows; l++ {
			s.rows[l] = dataset.Sample{X: s.rowbuf[l*w : (l+1)*w : (l+1)*w]}
		}
		s.rowsW = w
	}
	return s.rows[:n]
}
