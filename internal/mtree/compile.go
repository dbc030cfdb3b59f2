package mtree

// Compiled evaluation form of a trained M5' tree.
//
// Tree.Predict with smoothing enabled walks the pointer tree recursively
// and evaluates one linear model per ancestor of the destination leaf —
// Quinlan's blend (n·p + k·q)/(n + k) applied bottom-up along the root
// path. The blend is linear in the sample vector, so the entire root-path
// composition folds, per leaf, into a single fixed linear model:
//
//	path root = n_0, n_1, …, n_d (leaf), child populations N_i = n_i.N
//	scale_0 = 1,  scale_{i+1} = scale_i · N_{i+1}/(N_{i+1}+k)
//	smoothed(x) = Σ_{i<d} scale_i · k/(N_{i+1}+k) · M_i(x) + scale_d · M_d(x)
//
// Each M_i is linear, so the weighted sum is itself one linear model per
// leaf. Compile precomputes it, turning a smoothed prediction from
// O(depth × terms) recursive model evaluations into one flat traversal
// plus a single dense dot product.
//
// Interior nodes are stored in structure-of-arrays layout (attr,
// threshold, left, right as parallel slices) and the pre-composed leaf
// coefficients live in one contiguous slab indexed by leaf offset, so a
// traversal touches a handful of small arrays instead of chasing
// heap-scattered node pointers.
//
// The node arrays are ordered depth-layered breadth-first: every tree
// level occupies a contiguous index range, so a block of samples
// descending in lockstep touches one run of the attr/threshold arrays
// per level instead of hopping across a preorder scatter. Leaf indices
// stay in left-to-right order regardless (leaf index l is LeafID l+1);
// only interior ordering changed. See blocked.go for the multi-sample
// kernels that exploit the layout.
//
// The pointer tree remains the induction/serialization representation;
// a CompiledTree is derived from it once per trained model and predicts
// identically (to float rounding, well inside 1e-9) with smoothing on or
// off.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"specchar/internal/dataset"
	"specchar/internal/linreg"
	"specchar/internal/obs"
)

// CompiledTree is the flat, immutable evaluation form of a Tree. All
// methods are safe for concurrent use; callers that need a different
// batch worker bound derive a view with WithWorkers.
type CompiledTree struct {
	// workers bounds the goroutines used by batch scoring, exactly like
	// Options.Workers: 0 uses runtime.GOMAXPROCS, 1 forces serial
	// operation. Initialized from the source tree's Options; WithWorkers
	// is the only way to change it.
	workers int

	schema *dataset.Schema
	width  int  // schema attribute count = dense coefficient row width
	smooth bool // whether smoothing was folded into the leaf models

	// Interior nodes, structure-of-arrays, in depth-layered breadth-first
	// order (every level contiguous, root at index 0). A child reference
	// r >= 0 is an interior node index; r < 0 encodes leaf index ^r.
	attrs      []int32
	thresholds []float64
	left       []int32
	right      []int32
	rootRef    int32

	// Leaf models: intercepts[l] plus the dense coefficient row
	// coefs[l*width : (l+1)*width], in left-to-right leaf order so leaf
	// index l corresponds to LeafID l+1.
	intercepts []float64
	coefs      []float64

	// Derived arrays built by finish(), never serialized.
	//
	// kids interleaves the child references as [left0,right0,left1,…] so
	// the blocked kernels route with one unpredictable-branch-free load:
	// ref = kids[2*ref+b] where b∈{0,1} is the comparison outcome.
	kids []int32

	// Leaf boxes for memoized routing. Every leaf's region is an exact
	// product of half-open intervals (lo_a, hi_a] — lo is the max of the
	// thresholds on right turns down its path, hi the min on left turns —
	// so "x routes to leaf l" is equivalent to the branch-free membership
	// test ∀a: lo_a < x_a ≤ hi_a, with unconstrained attributes at
	// (-Inf, +Inf]. The fused kernel checks each sample against the
	// previous sample's leaf first and only routes on a miss; a NaN fails
	// every comparison, so NaN samples always fall through to the exact
	// route and keep the scalar path's NaN-goes-right semantics.
	//
	// Layout: per leaf, attribute lanes padded to a multiple of 8 (pad
	// lanes stay (-Inf, +Inf], which masked-to-zero x lanes satisfy), the
	// lo and hi vectors interleaved per 8-lane stride:
	// [lo0..7, hi0..7, lo8..15, hi8..15, …]. One extra sentinel box after
	// the last leaf has lo=+Inf everywhere, which no sample can enter —
	// the "no current leaf" state at the start of a chunk.
	boxes    []float64
	boxelems int // floats per box = 2 * (width rounded up to 8)

	// Packed interior metadata for the register-resident route on a box
	// miss: attr | left<<16 | right<<32, children as extended refs (an
	// interior node keeps its index, leaf index l becomes interior+l) so
	// one unsigned compare against `interior` detects arrival. Only built
	// when the u16 fields fit (packedOK); the generic kernels cover the
	// rest.
	packed   []uint64
	rootExt  int64
	packedOK bool
}

// Compile lowers the tree into its flat evaluation form, folding the
// smoothing blend of Options.Smooth/SmoothingK into one linear model per
// leaf. It fails only on malformed trees (missing models, split
// attributes or model terms outside the schema) — anything Build or
// ReadJSON produces compiles.
func (t *Tree) Compile() (*CompiledTree, error) {
	return t.CompileContext(context.Background())
}

// CompileContext is Compile under an observability context: it emits an
// "mtree.compile" span with a child covering the lowering walk —
// "mtree.compile.smooth" when the smoothing blend is being folded in,
// "mtree.compile.emit" otherwise. Compilation itself is not cancelable
// (it is a single in-memory walk); the context carries the recorder only.
func (t *Tree) CompileContext(ctx context.Context) (*CompiledTree, error) {
	rec := obs.FromContext(ctx)
	sctx, span := rec.StartSpan(ctx, "mtree.compile", obs.A("smooth", t.Opts.Smooth))
	defer span.End()
	if t.Schema == nil || t.Root == nil {
		return nil, errors.New("mtree: cannot compile a tree without schema or root")
	}
	w := t.Schema.NumAttrs()
	interior, leaves := 0, 0
	var count func(n *Node) error
	count = func(n *Node) error {
		if n.Model == nil {
			return errors.New("mtree: cannot compile a tree with a model-less node")
		}
		if len(n.Model.Terms) != len(n.Model.Coef) {
			return errors.New("mtree: cannot compile a model whose terms and coefficients disagree")
		}
		for _, term := range n.Model.Terms {
			if term < 0 || term >= w {
				return fmt.Errorf("mtree: cannot compile: model term %d outside schema width %d", term, w)
			}
		}
		if n.IsLeaf() {
			leaves++
			return nil
		}
		if n.Attr < 0 || n.Attr >= w {
			return fmt.Errorf("mtree: cannot compile: split attribute %d outside schema width %d", n.Attr, w)
		}
		interior++
		if err := count(n.Left); err != nil {
			return err
		}
		return count(n.Right)
	}
	if err := count(t.Root); err != nil {
		return nil, err
	}

	c := &CompiledTree{
		workers:    t.Opts.Workers,
		schema:     t.Schema,
		width:      w,
		smooth:     t.Opts.Smooth,
		attrs:      make([]int32, interior),
		thresholds: make([]float64, interior),
		left:       make([]int32, interior),
		right:      make([]int32, interior),
		intercepts: make([]float64, 0, leaves),
		coefs:      make([]float64, 0, leaves*w),
	}
	k := t.Opts.SmoothingK

	// Interior nodes get depth-layered breadth-first indices: a queue walk
	// numbers them in pop order, so every tree level occupies a contiguous
	// index range and the root is index 0. Leaves are not numbered here —
	// their indices are assigned left-to-right by the emit walk below, so
	// LeafID mapping is independent of the interior layout.
	bfs := make(map[*Node]int32, interior)
	if !t.Root.IsLeaf() {
		queue := append(make([]*Node, 0, interior), t.Root)
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			bfs[n] = int32(len(bfs))
			for _, child := range [2]*Node{n.Left, n.Right} {
				if !child.IsLeaf() {
					queue = append(queue, child)
				}
			}
		}
	}

	// emit walks the tree in leaf order, carrying the accumulated blend of
	// the ancestor models (acc/intercept) and the remaining weight of the
	// subtree below (scale). See the derivation at the top of the file.
	// Interior slots were preassigned by the breadth-first pass; the walk
	// order — and therefore every floating-point accumulation — is the
	// same depth-first order as always, so leaf models are byte-identical
	// to the preorder layout's.
	var emit func(n *Node, acc []float64, intercept, scale float64) int32
	emit = func(n *Node, acc []float64, intercept, scale float64) int32 {
		if n.IsLeaf() {
			li := len(c.intercepts)
			accumulateModel(acc, &intercept, n.Model, scale)
			c.intercepts = append(c.intercepts, intercept)
			c.coefs = append(c.coefs, acc...)
			return int32(^li)
		}
		idx := bfs[n]
		c.attrs[idx] = int32(n.Attr)
		c.thresholds[idx] = n.Threshold
		for side, child := range [2]*Node{n.Left, n.Right} {
			childAcc := append(make([]float64, 0, w), acc...)
			childIntercept, childScale := intercept, scale
			if t.Opts.Smooth {
				nk := float64(child.N) + k
				accumulateModel(childAcc, &childIntercept, n.Model, scale*k/nk)
				childScale = scale * float64(child.N) / nk
			}
			ref := emit(child, childAcc, childIntercept, childScale)
			if side == 0 {
				c.left[idx] = ref
			} else {
				c.right[idx] = ref
			}
		}
		return idx
	}
	lowerPhase := "mtree.compile.emit"
	if t.Opts.Smooth {
		lowerPhase = "mtree.compile.smooth"
	}
	_, sp := rec.StartSpan(sctx, lowerPhase)
	c.rootRef = emit(t.Root, make([]float64, w), 0, 1)
	sp.End()
	c.finish()
	if rec.Enabled() {
		span.SetAttr("leaves", leaves)
		span.SetAttr("interior", interior)
	}
	return c, nil
}

// finish builds the derived routing structures the blocked and fused
// kernels read — the interleaved kids table, the exact leaf boxes, and
// the packed route metadata. Called once after the node arrays are
// final, from compilation and artifact load.
func (c *CompiledTree) finish() {
	c.kids = make([]int32, 2*len(c.attrs))
	for i := range c.attrs {
		c.kids[2*i] = c.left[i]
		c.kids[2*i+1] = c.right[i]
	}
	c.finishBoxes()
	c.finishPacked()
}

// finishBoxes derives the per-leaf interval boxes (see the field comment
// for layout and semantics) by one walk over the flat node arrays,
// narrowing a running (lo, hi] interval per attribute and snapshotting it
// at each leaf.
func (c *CompiledTree) finishBoxes() {
	w := c.width
	wpad := (w + 7) &^ 7
	c.boxelems = 2 * wpad
	nl := len(c.intercepts)
	c.boxes = make([]float64, (nl+1)*c.boxelems)
	ninf, pinf := math.Inf(-1), math.Inf(1)
	for i := range c.boxes {
		// Default every lo lane to -Inf and every hi lane to +Inf; pad
		// lanes keep these and always pass against masked-to-zero x.
		if i%16 < 8 {
			c.boxes[i] = ninf
		} else {
			c.boxes[i] = pinf
		}
	}
	setBox := func(li int, lo, hi []float64) {
		base := li * c.boxelems
		for j := 0; j < w; j++ {
			c.boxes[base+(j/8)*16+j%8] = lo[j]
			c.boxes[base+(j/8)*16+8+j%8] = hi[j]
		}
	}
	lo := make([]float64, w)
	hi := make([]float64, w)
	for j := 0; j < w; j++ {
		lo[j], hi[j] = ninf, pinf
	}
	var walk func(ref int32)
	walk = func(ref int32) {
		if ref < 0 {
			setBox(int(^ref), lo, hi)
			return
		}
		a, t := c.attrs[ref], c.thresholds[ref]
		oh := hi[a]
		if t < oh {
			hi[a] = t // left subtree: x ≤ min(hi, t)
		}
		walk(c.left[ref])
		hi[a] = oh
		ol := lo[a]
		if t > ol {
			lo[a] = t // right subtree: x > max(lo, t)
		}
		walk(c.right[ref])
		lo[a] = ol
	}
	if nl > 0 {
		walk(c.rootRef)
	}
	// Sentinel box: lo = +Inf on real lanes, so nothing ever matches it.
	sb := nl * c.boxelems
	for j := 0; j < w; j++ {
		c.boxes[sb+(j/8)*16+j%8] = pinf
	}
}

// finishPacked derives the u16-packed route metadata when tree size and
// schema width fit the packing; otherwise packedOK stays false and batch
// scoring keeps to the generic lane-blocked kernels.
func (c *CompiledTree) finishPacked() {
	interior, nl := len(c.attrs), len(c.intercepts)
	c.packedOK = interior+nl <= 1<<16 && c.width <= 1<<16
	if !c.packedOK {
		return
	}
	ext := func(r int32) uint64 {
		if r >= 0 {
			return uint64(r)
		}
		return uint64(interior) + uint64(^r)
	}
	c.packed = make([]uint64, interior)
	for i := range c.attrs {
		c.packed[i] = uint64(c.attrs[i]) | ext(c.left[i])<<16 | ext(c.right[i])<<32
	}
	c.rootExt = int64(ext(c.rootRef))
}

// accumulateModel adds weight·m into the dense accumulator.
func accumulateModel(acc []float64, intercept *float64, m *linreg.Model, weight float64) {
	*intercept += weight * m.Intercept
	for j, term := range m.Terms {
		acc[term] += weight * m.Coef[j]
	}
}

// WithWorkers returns a view of the tree whose batch scoring uses the
// given worker bound (0 = runtime.GOMAXPROCS, 1 = serial). The view is a
// shallow copy sharing every node and coefficient slab with the receiver,
// which is left untouched, so a tree shared across goroutines (a registry
// serving many request goroutines, for example) never has its bound
// mutated. Views are as immutable as the tree itself and safe to create
// concurrently.
func (c *CompiledTree) WithWorkers(n int) *CompiledTree {
	if n == c.workers {
		return c
	}
	cp := *c
	cp.workers = n
	return &cp
}

// Schema returns the schema the tree was trained under.
func (c *CompiledTree) Schema() *dataset.Schema { return c.schema }

// NumAttrs returns the sample width the tree evaluates.
func (c *CompiledTree) NumAttrs() int { return c.width }

// NumLeaves returns the number of (pre-composed) leaf linear models.
func (c *CompiledTree) NumLeaves() int { return len(c.intercepts) }

// NumNodes returns the total node count, interior plus leaves.
func (c *CompiledTree) NumNodes() int { return len(c.attrs) + len(c.intercepts) }

// Smoothed reports whether smoothing was folded into the leaf models.
func (c *CompiledTree) Smoothed() bool { return c.smooth }

// LeafModel returns a copy of the pre-composed linear model of the 1-based
// leaf id (zero coefficients dropped), or nil for an invalid id — the
// inspectable per-leaf equivalent of the root-path smoothing blend.
func (c *CompiledTree) LeafModel(leafID int) *linreg.Model {
	if leafID < 1 || leafID > len(c.intercepts) {
		return nil
	}
	li := leafID - 1
	m := &linreg.Model{Intercept: c.intercepts[li]}
	for j, cf := range c.coefs[li*c.width : (li+1)*c.width] {
		if cf != 0 {
			m.Coef = append(m.Coef, cf)
			m.Terms = append(m.Terms, j)
		}
	}
	return m
}

// leafIndex runs the flat traversal to the 0-based leaf index. The sample
// must be at least width attributes wide.
func (c *CompiledTree) leafIndex(x []float64) int {
	ref := c.rootRef
	for ref >= 0 {
		if x[c.attrs[ref]] <= c.thresholds[ref] {
			ref = c.left[ref]
		} else {
			ref = c.right[ref]
		}
	}
	return int(^ref)
}

// ClassifyLeaf returns the 1-based LeafID the sample falls into,
// matching Tree.Classify(x).LeafID. The sample must be at least as wide
// as the schema; batch callers use ClassifyLeavesCheckedContext.
func (c *CompiledTree) ClassifyLeaf(x []float64) int { return c.leafIndex(x) + 1 }

// Predict returns the compiled prediction: one traversal plus one dot
// product against the leaf's pre-composed model, evaluated in the fixed
// eight-lane FMA schedule of fmadot.go (bit-identical to the batch row
// kernels). Smoothing, when enabled at compile time, is already folded
// in. The sample must be at least as wide as the schema; batch callers
// use PredictDatasetCheckedContext.
func (c *CompiledTree) Predict(x []float64) float64 {
	li := c.leafIndex(x)
	return dotRow(c.intercepts[li], c.coefs[li*c.width:(li+1)*c.width], x)
}

// checkWidth validates a sample width against the compiled schema.
func (c *CompiledTree) checkWidth(w int) error {
	if w != c.width {
		return fmt.Errorf("%w: got %d attributes, schema has %d", ErrSampleWidth, w, c.width)
	}
	return nil
}

// checkDataset validates the dataset's schema and every sample row.
func (c *CompiledTree) checkDataset(d *dataset.Dataset) error {
	if err := c.checkWidth(d.Schema.NumAttrs()); err != nil {
		return err
	}
	for i := range d.Samples {
		if len(d.Samples[i].X) != c.width {
			return fmt.Errorf("%w: sample %d has %d attributes, schema has %d",
				ErrSampleWidth, i, len(d.Samples[i].X), c.width)
		}
	}
	return nil
}

// checkColumns validates a column-major sample matrix against the schema.
func (c *CompiledTree) checkColumns(cols [][]float64, n int) error {
	if err := c.checkWidth(len(cols)); err != nil {
		return err
	}
	for j := range cols {
		if len(cols[j]) != n {
			return fmt.Errorf("%w: column %d has %d samples, want %d",
				ErrSampleWidth, j, len(cols[j]), n)
		}
	}
	return nil
}

// PredictDatasetCheckedContext validates the dataset against the compiled
// schema (ErrSampleWidth on a schema or row width mismatch) and returns
// compiled predictions for every sample. Batches are scored in
// laneBlock-sample blocks across the worker pool — each node's (attr,
// threshold) pair is loaded once per block instead of once per sample;
// see blocked.go. Workers pull fixed chunks and check the context at
// every chunk boundary, so a canceled context returns a wrapped
// ctx.Err() within one chunk of work; a panicking worker is contained
// and returned as an error. The chunk size is a multiple of the lane
// block, so block boundaries — and with them the exact floating-point
// schedule — are identical at every worker count: predictions are
// bit-identical to per-sample Predict.
func (c *CompiledTree) PredictDatasetCheckedContext(ctx context.Context, d *dataset.Dataset) ([]float64, error) {
	if err := c.checkDataset(d); err != nil {
		return nil, err
	}
	workers := effectiveWorkers(c.workers)
	_, span := obs.FromContext(ctx).StartSpan(ctx, "mtree.predict",
		obs.A("compiled", true), obs.A("workers", workers))
	span.SetRows(d.Len())
	defer span.End()
	out := make([]float64, d.Len())
	err := forRangesChunkCtx(ctx, d.Len(), workers, blockedChunk, "mtree.predict.chunk", func(lo, hi int) {
		c.predictRowsRange(d.Samples, lo, hi, out)
	})
	if err != nil {
		return nil, fmt.Errorf("mtree: compiled batch prediction: %w", err)
	}
	return out, nil
}

// PredictColumnsCheckedContext validates a column-major sample matrix —
// cols[j][i] is attribute j of sample i, the layout dataset.Columns and
// the columnar binary format produce — against the schema (len(cols)
// must match its width and every column must hold n samples) and returns
// compiled predictions for the n samples. Scoring gathers laneBlock-
// sample tiles into pooled row-major scratch and runs the fused row
// kernels (see transpose.go) on the row path's block grid, so no full
// row-major matrix is ever materialized and predictions are
// bit-identical to per-sample Predict at every worker count.
// Cancellation and panic containment are those of
// PredictDatasetCheckedContext.
func (c *CompiledTree) PredictColumnsCheckedContext(ctx context.Context, cols [][]float64, n int) ([]float64, error) {
	if err := c.checkColumns(cols, n); err != nil {
		return nil, err
	}
	workers := effectiveWorkers(c.workers)
	_, span := obs.FromContext(ctx).StartSpan(ctx, "mtree.predict",
		obs.A("compiled", true), obs.A("columnar", true), obs.A("workers", workers))
	span.SetRows(n)
	defer span.End()
	out := make([]float64, n)
	err := forRangesChunkCtx(ctx, n, workers, blockedChunk, "mtree.predict.chunk", func(lo, hi int) {
		c.predictColsRange(cols, lo, hi, out)
	})
	if err != nil {
		return nil, fmt.Errorf("mtree: compiled columnar prediction: %w", err)
	}
	return out, nil
}

// ClassifyLeavesCheckedContext validates the dataset against the compiled
// schema and returns the 1-based LeafID of every sample — the batch entry
// point characterization (leaf-occupancy profiles) runs on. Batching,
// cancellation and panic containment are those of
// PredictDatasetCheckedContext.
func (c *CompiledTree) ClassifyLeavesCheckedContext(ctx context.Context, d *dataset.Dataset) ([]int, error) {
	if err := c.checkDataset(d); err != nil {
		return nil, err
	}
	workers := effectiveWorkers(c.workers)
	_, span := obs.FromContext(ctx).StartSpan(ctx, "mtree.classify", obs.A("workers", workers))
	span.SetRows(d.Len())
	defer span.End()
	out := make([]int, d.Len())
	err := forRangesChunkCtx(ctx, d.Len(), workers, blockedChunk, "mtree.predict.chunk", func(lo, hi int) {
		c.classifyRowsRange(d.Samples, lo, hi, out)
	})
	if err != nil {
		return nil, fmt.Errorf("mtree: compiled leaf classification: %w", err)
	}
	return out, nil
}

// PredictDatasetChecked is PredictDatasetCheckedContext under
// context.Background(). It exists for the benchmark harness (perfbench),
// whose sources are frozen against this name.
func (c *CompiledTree) PredictDatasetChecked(d *dataset.Dataset) ([]float64, error) {
	return c.PredictDatasetCheckedContext(context.Background(), d)
}

// PredictColumnsChecked is PredictColumnsCheckedContext under
// context.Background(). It exists for the benchmark harness (perfbench),
// whose sources are frozen against this name.
func (c *CompiledTree) PredictColumnsChecked(cols [][]float64, n int) ([]float64, error) {
	return c.PredictColumnsCheckedContext(context.Background(), cols, n)
}
