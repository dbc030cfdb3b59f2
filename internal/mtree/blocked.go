package mtree

// Batch scoring chunk bodies.
//
// The batch entry points split their samples into scoreChunk-sample
// chunks (forRangesChunkCtx checks the context and contains panics at
// every chunk boundary) and score each sample through the per-sample
// methods: one leafIndex walk and one dotRow. Batch output is therefore
// Predict's output by construction — bit-identical at every worker count
// and for row and column input alike.

import "specchar/internal/dataset"

// scoreChunk is the work quantum of batch scoring: small enough that a
// suite dataset splits across the whole worker pool and a canceled
// context is noticed within microseconds.
const scoreChunk = 512

// predictRowsRange scores row-major samples [lo,hi) into out[lo:hi].
func (c *CompiledTree) predictRowsRange(samples []dataset.Sample, lo, hi int, out []float64) {
	for i := lo; i < hi; i++ {
		out[i] = c.Predict(samples[i].X)
	}
}

// predictColsRange scores column-major samples [lo,hi) into out[lo:hi],
// gathering each sample into one row buffer for Predict.
func (c *CompiledTree) predictColsRange(cols [][]float64, lo, hi int, out []float64) {
	x := make([]float64, c.width)
	for i := lo; i < hi; i++ {
		for j, col := range cols {
			x[j] = col[i]
		}
		out[i] = c.Predict(x)
	}
}

// classifyRowsRange fills out[lo:hi] with the 1-based LeafIDs of
// samples [lo,hi).
func (c *CompiledTree) classifyRowsRange(samples []dataset.Sample, lo, hi int, out []int) {
	for i := lo; i < hi; i++ {
		out[i] = c.ClassifyLeaf(samples[i].X)
	}
}
