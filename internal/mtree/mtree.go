// Package mtree implements M5' model trees, the core analytical technique
// of the paper (Section III). An M5' tree recursively partitions the
// sample space on attribute thresholds chosen to maximize standard
// deviation reduction (SDR), then places a multivariate linear model at
// each leaf. Subtrees whose leaf models do not beat a single node-level
// model are pruned away, and predictions are optionally smoothed along the
// path from leaf to root.
//
// Induction, model fitting, pruning, and batch prediction all run on a
// bounded worker pool (see Options.Workers); the induced tree is
// bit-for-bit identical for every worker count because sibling subtrees
// own disjoint ranges of a stably partitioned sample array, so no float
// reduction ever changes order.
//
// References: Quinlan, "Learning with Continuous Classes" (1992);
// Wang & Witten, "Induction of model trees for predicting continuous
// classes" (1997) — the M5' variant re-implemented in WEKA and used by
// the paper.
package mtree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"specchar/internal/dataset"
	"specchar/internal/faultinject"
	"specchar/internal/linreg"
	"specchar/internal/obs"
	"specchar/internal/robust"
)

// Options control tree induction.
type Options struct {
	// MinLeaf is the minimum number of training samples in each branch of
	// a candidate split. Splits that would isolate fewer samples are not
	// considered.
	MinLeaf int

	// MinSplit is the minimum number of samples a node must contain before
	// a split is attempted; smaller nodes become leaves.
	MinSplit int

	// SDThresholdFrac stops splitting once a node's response standard
	// deviation falls below this fraction of the root's (M5's default
	// stopping rule uses 0.05).
	SDThresholdFrac float64

	// MaxDepth caps tree depth as a safety valve; 0 means unlimited.
	MaxDepth int

	// Prune enables bottom-up subtree replacement by node-level linear
	// models when the model's compensated error is no worse.
	Prune bool

	// PruningFactor scales the subtree error during the pruning
	// comparison. 1.0 is the standard rule; values above 1 prune more
	// aggressively, values below 1 keep larger trees.
	PruningFactor float64

	// Smooth enables M5 leaf-to-root prediction smoothing.
	Smooth bool

	// SmoothingK is the smoothing constant (Quinlan uses 15).
	SmoothingK float64

	// Workers bounds the goroutines used for induction and batch
	// prediction: 0 (the default) uses runtime.GOMAXPROCS, 1 forces fully
	// serial operation. Every worker count induces the identical tree.
	// A resource knob rather than a model property, so it is excluded
	// from serialized trees.
	Workers int `json:"-"`
}

// DefaultOptions returns the configuration used for the paper
// reproduction, matching M5' defaults.
func DefaultOptions() Options {
	return Options{
		MinLeaf:         4,
		MinSplit:        8,
		SDThresholdFrac: 0.05,
		MaxDepth:        0,
		Prune:           true,
		PruningFactor:   1.0,
		Smooth:          true,
		SmoothingK:      15,
	}
}

// Node is one node of a model tree. Interior nodes carry a split
// (Attr, Threshold, Left, Right); leaves carry a LeafID. Every node keeps
// a linear model: at leaves it is the prediction model, at interior nodes
// it supports smoothing.
type Node struct {
	// Split description (interior nodes only). Samples with
	// X[Attr] <= Threshold go Left, others go Right.
	Attr      int
	Threshold float64
	Left      *Node
	Right     *Node

	// Model is the node's linear model (always set after Build).
	Model *linreg.Model

	// LeafID is the 1-based index of the leaf in left-to-right order
	// ("LM1", "LM2", ... in the paper's figures); 0 for interior nodes.
	LeafID int

	// Training statistics.
	N     int     // samples reaching this node during training
	MeanY float64 // mean response of those samples
	SD    float64 // population standard deviation of the response
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a trained M5' model tree.
type Tree struct {
	Schema *dataset.Schema
	Root   *Node
	Opts   Options
	leaves []*Node
}

// Leaves returns the tree's leaves in left-to-right order; Leaves()[i] has
// LeafID i+1.
func (t *Tree) Leaves() []*Node { return t.leaves }

// NumLeaves returns the number of leaf linear models.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// ErrNoData is returned when Build is called with an empty training set.
var ErrNoData = errors.New("mtree: empty training set")

// Build trains an M5' model tree on the dataset.
func Build(d *dataset.Dataset, opts Options) (*Tree, error) {
	return BuildContext(context.Background(), d, opts)
}

// BuildContext is Build with cooperative cancellation: induction checks the
// context at every node fork and chunk boundary and returns a wrapped
// ctx.Err() (errors.Is(err, context.Canceled) holds) once it is observed.
// A panic on any induction worker is recovered with its stack, cancels the
// sibling workers, and is returned as the build error instead of crashing
// the process.
func BuildContext(ctx context.Context, d *dataset.Dataset, opts Options) (*Tree, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d.Len() == 0 {
		return nil, ErrNoData
	}
	if opts.MinLeaf < 1 {
		opts.MinLeaf = 1
	}
	if opts.MinSplit < 2*opts.MinLeaf {
		opts.MinSplit = 2 * opts.MinLeaf
	}
	n := d.Len()
	workers := effectiveWorkers(opts.Workers)
	rec := obs.FromContext(ctx)
	sctx, span := rec.StartSpan(ctx, "mtree.build",
		obs.A("samples", n), obs.A("attrs", d.Schema.NumAttrs()), obs.A("workers", workers))
	span.SetRows(n)
	defer span.End()
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	b := &builder{
		// Xs/Ys return fresh top-level slices (row views and a response
		// copy), so the builder may permute them freely; the dataset's own
		// storage is never reordered or written. cols and ycol are
		// immutable mirrors indexed by original sample id — they are never
		// permuted, so the per-attribute order arrays can refer to samples
		// by id no matter how partitions rearrange the row views.
		xs:     d.Xs(),
		ys:     d.Ys(),
		cols:   d.Columns(),
		ycol:   d.Ys(),
		opts:   opts,
		ctx:    bctx,
		cancel: cancel,
		// Pool metrics: the lift count is scheduling-dependent, hence
		// volatile (Prometheus only, never the manifest); occupancy is a
		// high-water gauge. Both are nil (free) on a disabled recorder.
		lifts: rec.VolatileCounter("specchar_pool_lifted_forks_total"),
		occ:   rec.Gauge("specchar_pool_occupancy_peak"),
	}
	if workers > 1 {
		b.sem = make(chan struct{}, workers-1)
	}
	rootSD := popSDRange(b.ys, 0, n)
	b.sdStop = rootSD * opts.SDThresholdFrac

	var root *Node
	// The caller-goroutine half of every fork runs here; Safely gives it
	// the same containment forkJoin gives the lifted half. forkJoin joins
	// before returning, so no worker outlives this call.
	if err := robust.Safely(func() error {
		_, sp := rec.StartSpan(sctx, "mtree.build.presort")
		b.initPresort(workers)
		sp.End()
		_, sp = rec.StartSpan(sctx, "mtree.build.grow")
		root = b.grow(0, n, 0)
		sp.End()
		_, sp = rec.StartSpan(sctx, "mtree.build.fit")
		b.fitModels(root, 0, n)
		sp.End()
		if opts.Prune {
			_, sp = rec.StartSpan(sctx, "mtree.build.prune")
			b.prune(root, 0, n)
			sp.End()
		}
		return nil
	}); err != nil {
		b.fail(err)
	}
	if err := b.failure(); err != nil {
		return nil, fmt.Errorf("mtree: build failed: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mtree: build canceled: %w", err)
	}
	t := &Tree{Schema: d.Schema, Root: root, Opts: opts}
	t.numberLeaves()
	if rec.Enabled() {
		span.SetAttr("leaves", t.NumLeaves())
		span.SetAttr("depth", t.Depth())
		rec.Gauge("specchar_tree_leaves").Set(float64(t.NumLeaves()))
		rec.Gauge("specchar_tree_nodes").Set(float64(t.NumNodes()))
	}
	return t, nil
}

// effectiveWorkers resolves the Workers option to a concrete pool size.
func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// builder holds the mutable induction state: two parallel arrays (row
// views and responses) that grow reorders with stable in-place
// partitions, plus the presorted split-search state. After a node
// partitions its range [lo,hi) at mid, the left subtree owns [lo,mid)
// and the right subtree owns [mid,hi), so concurrent sibling work never
// overlaps and fitModels/prune recover child ranges from Node.N instead
// of re-partitioning or copying.
//
// The split search never sorts per node. initPresort sorts each
// attribute's sample ids once at the root by (value, id); partition then
// stably partitions every order array alongside the row arrays, which
// keeps each side sorted — so bestSplitForAttr is a pure linear scan at
// every node. cols and ycol are immutable id-indexed mirrors backing
// those scans with contiguous column reads.
type builder struct {
	xs     [][]float64
	ys     []float64
	opts   Options
	sdStop float64
	sem    chan struct{} // grants for extra worker goroutines; nil = serial

	// Presorted split-search state. cols[a][id] and ycol[id] are indexed
	// by original sample id and never reordered; attrOrd[a][lo:hi] lists
	// the ids of the samples in node range [lo,hi), ascending by
	// (cols[a][id], id) — the same total order the seed implementation
	// re-established with a per-node sort. badAttr marks columns holding
	// a non-finite value, detected once at build start; such an attribute
	// admits no split anywhere (the seed rescanned per node).
	cols    [][]float64
	ycol    []float64
	attrOrd [][]int32
	badAttr []bool

	// Cancellation and failure state. ctx/cancel are nil for the bare
	// builders of helpers like EvaluateSplits, which only use the split
	// scan; every method must tolerate that.
	ctx     context.Context
	cancel  context.CancelFunc
	failMu  sync.Mutex
	failErr error

	// Observability handles, nil when recording is disabled (every
	// method on them is then a no-op after one nil check).
	lifts *obs.Counter
	occ   *obs.Gauge
}

// fail records the first worker error and cancels the siblings.
func (b *builder) fail(err error) {
	if err == nil {
		return
	}
	b.failMu.Lock()
	if b.failErr == nil {
		b.failErr = err
	}
	b.failMu.Unlock()
	if b.cancel != nil {
		b.cancel()
	}
}

// failure returns the first recorded worker error, if any.
func (b *builder) failure() error {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	return b.failErr
}

// stopped reports whether induction should stop early (cancellation or a
// sibling failure). Further tree work is wasted once it returns true; the
// partial tree is discarded by BuildContext.
func (b *builder) stopped() bool {
	return b.ctx != nil && b.ctx.Err() != nil
}

// initPresort builds the per-attribute order arrays: one O(n log n) sort
// per attribute at the root, fanned out across goroutines when the
// builder has a worker pool. All later nodes maintain the orders with
// O(attrs·n) stable partitions instead of re-sorting. The order arrays
// share one int32 slab, mirroring the contiguous column slab they index.
func (b *builder) initPresort(workers int) {
	nAttrs := len(b.cols)
	n := len(b.ycol)
	slab := make([]int32, nAttrs*n)
	b.attrOrd = make([][]int32, nAttrs)
	for a := range b.attrOrd {
		b.attrOrd[a] = slab[a*n : (a+1)*n : (a+1)*n]
	}
	b.badAttr = make([]bool, nAttrs)
	if workers > 1 && nAttrs > 1 {
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < min(workers, nAttrs); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if pe := robust.AsPanicError(recover()); pe != nil {
						b.fail(pe)
					}
				}()
				for {
					a := int(next.Add(1)) - 1
					if a >= nAttrs || b.stopped() {
						return
					}
					b.presortAttr(a)
				}
			}()
		}
		wg.Wait()
		return
	}
	for a := 0; a < nAttrs; a++ {
		b.presortAttr(a)
	}
}

// presortAttr validates one attribute column (the single-pass non-finite
// backstop) and sorts its order array by (value, original sample id).
// The sort key is a total order — ids are unique — so any comparison
// sort yields the identical permutation; determinism does not depend on
// the algorithm. A column with a NaN or Inf is marked bad and left
// unsorted: comparisons against NaN are unordered and would silently
// corrupt the order invariant, so the attribute admits no split at all.
func (b *builder) presortAttr(a int) {
	col := b.cols[a]
	ord := b.attrOrd[a]
	for i := range ord {
		ord[i] = int32(i)
	}
	for _, v := range col {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.badAttr[a] = true
			return
		}
	}
	slices.SortFunc(ord, func(x, y int32) int {
		vx, vy := col[x], col[y]
		switch {
		case vx < vy:
			return -1
		case vx > vy:
			return 1
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	})
}

// parallelNodeThreshold is the subtree size below which sibling work stays
// on the current goroutine — under a few hundred samples the handoff costs
// more than the work.
const parallelNodeThreshold = 512

// forkJoin runs left and right, lifting left onto a worker goroutine when
// the pool has a free grant and the node is large enough to amortize the
// handoff. Both closures operate on disjoint array ranges, so the join is
// the only synchronization needed. A panicking lifted worker is contained:
// the panic is recorded with its stack via fail (canceling the siblings)
// and the join still completes, so induction degrades to a clean error.
func (b *builder) forkJoin(size int, left, right func()) {
	if b.stopped() {
		return
	}
	if b.sem != nil && size >= parallelNodeThreshold {
		select {
		case b.sem <- struct{}{}:
			b.lifts.Add(1)
			b.occ.SetMax(float64(len(b.sem)))
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { <-b.sem }()
				defer func() {
					if pe := robust.AsPanicError(recover()); pe != nil {
						b.fail(pe)
					}
				}()
				if b.stopped() {
					return
				}
				faultinject.Sleep("mtree.build.worker")
				faultinject.CheckPanic("mtree.build.worker")
				if err := faultinject.Check("mtree.build.worker"); err != nil {
					b.fail(err)
					return
				}
				left()
			}()
			right()
			<-done
			return
		default:
		}
	}
	left()
	right()
}

// grow builds the unpruned split structure over [lo,hi).
func (b *builder) grow(lo, hi, depth int) *Node {
	n := &Node{
		N:     hi - lo,
		MeanY: meanRange(b.ys, lo, hi),
		SD:    popSDRange(b.ys, lo, hi),
	}
	if b.stopped() {
		return n // partial structure; BuildContext discards it with an error
	}
	if hi-lo < b.opts.MinSplit || n.SD <= b.sdStop ||
		(b.opts.MaxDepth > 0 && depth >= b.opts.MaxDepth) {
		return n
	}
	attr, thr, ok := b.bestSplit(lo, hi)
	if !ok {
		return n
	}
	mid := b.partition(lo, hi, attr, thr)
	b.partitionOrders(lo, hi, attr, thr)
	if mid-lo < b.opts.MinLeaf || hi-mid < b.opts.MinLeaf {
		return n
	}
	n.Attr, n.Threshold = attr, thr
	b.forkJoin(hi-lo,
		func() { n.Left = b.grow(lo, mid, depth+1) },
		func() { n.Right = b.grow(mid, hi, depth+1) })
	return n
}

// partScratch buffers the right-hand side of a stable partition. Pooled so
// concurrent subtree partitions allocate O(tree) total instead of the
// O(n·depth) the old per-node index copies cost.
type partScratch struct {
	xs  [][]float64
	ys  []float64
	ids []int32
}

var partPool = sync.Pool{New: func() any { return new(partScratch) }}

// partition stably reorders [lo,hi) so samples with X[attr] <= thr come
// first, returning the boundary. Stability preserves the original sample
// order within each side, which keeps every downstream float reduction
// (means, SDs, regressions) summing in the same order as a fully serial
// build — the root of the bit-for-bit determinism guarantee.
func (b *builder) partition(lo, hi, attr int, thr float64) int {
	sc := partPool.Get().(*partScratch)
	sc.xs, sc.ys = sc.xs[:0], sc.ys[:0]
	w := lo
	for i := lo; i < hi; i++ {
		if b.xs[i][attr] <= thr {
			b.xs[w], b.ys[w] = b.xs[i], b.ys[i]
			w++
		} else {
			sc.xs = append(sc.xs, b.xs[i])
			sc.ys = append(sc.ys, b.ys[i])
		}
	}
	copy(b.xs[w:hi], sc.xs)
	copy(b.ys[w:hi], sc.ys)
	partPool.Put(sc)
	return w
}

// partitionOrders applies the node's split to every attribute order
// array: each attrOrd[a][lo:hi] is stably partitioned by the same
// predicate that partitioned the rows (cols[attr][id] <= thr, evaluated
// on the immutable column mirror). A stable partition of a sorted slice
// leaves both sides sorted, so the presort invariant — attrOrd[a] sorted
// by (value, id) within every live node range — is maintained in
// O(attrs·n) without any re-sort. Attribute fan-out mirrors bestSplit:
// the arrays are independent, each goroutine writes only its own
// attribute's [lo,hi) range, and sibling nodes own disjoint ranges.
func (b *builder) partitionOrders(lo, hi, attr int, thr float64) {
	split := b.cols[attr]
	part := func(a int) {
		if b.badAttr[a] {
			return // never scanned, never sorted; nothing to maintain
		}
		sc := partPool.Get().(*partScratch)
		sc.ids = sc.ids[:0]
		ord := b.attrOrd[a]
		w := lo
		for i := lo; i < hi; i++ {
			id := ord[i]
			if split[id] <= thr {
				ord[w] = id
				w++
			} else {
				sc.ids = append(sc.ids, id)
			}
		}
		copy(ord[w:hi], sc.ids)
		partPool.Put(sc)
	}
	nAttrs := len(b.cols)
	if hi-lo >= parallelSplitThreshold && nAttrs > 1 && b.sem != nil {
		var wg sync.WaitGroup
		for a := 0; a < nAttrs; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				defer func() {
					if pe := robust.AsPanicError(recover()); pe != nil {
						b.fail(pe)
					}
				}()
				if b.stopped() {
					return
				}
				part(a)
			}(a)
		}
		wg.Wait()
		return
	}
	for a := 0; a < nAttrs; a++ {
		part(a)
	}
}

// bestSplit finds the (attribute, threshold) pair maximizing the standard
// deviation reduction SDR = sd(T) - sum |Ti|/|T| * sd(Ti). Ties break
// toward the lowest attribute index, then the lowest threshold, keeping
// induction deterministic.
func (b *builder) bestSplit(lo, hi int) (attr int, threshold float64, ok bool) {
	nAttrs := len(b.xs[lo])

	// The per-attribute scans are independent; on large nodes they are
	// fanned out across goroutines. Results are reduced in attribute
	// order afterwards, so parallel and serial induction are identical.
	type result struct {
		thr   float64
		sdr   float64
		valid bool
	}
	results := make([]result, nAttrs)
	if hi-lo >= parallelSplitThreshold && nAttrs > 1 && b.sem != nil {
		var wg sync.WaitGroup
		for a := 0; a < nAttrs; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				defer func() {
					if pe := robust.AsPanicError(recover()); pe != nil {
						b.fail(pe)
					}
				}()
				if b.stopped() {
					return
				}
				thr, sdr, valid := b.bestSplitForAttr(lo, hi, a)
				results[a] = result{thr, sdr, valid}
			}(a)
		}
		wg.Wait()
	} else {
		for a := 0; a < nAttrs; a++ {
			thr, sdr, valid := b.bestSplitForAttr(lo, hi, a)
			results[a] = result{thr, sdr, valid}
		}
	}
	bestSDR := 0.0
	for a, r := range results {
		if r.valid && r.sdr > bestSDR+1e-15 {
			bestSDR = r.sdr
			attr, threshold, ok = a, r.thr, true
		}
	}
	return attr, threshold, ok
}

// parallelSplitThreshold is the node size above which the split search
// fans out one goroutine per attribute. Small nodes stay serial — the
// goroutine overhead would dominate their sort cost.
const parallelSplitThreshold = 2048

// bestSplitForAttr scans one attribute's value boundaries for the
// threshold maximizing the SDR over the samples in [lo,hi). The samples
// arrive already ordered by (value, original id) in attrOrd[a][lo:hi] —
// established once by initPresort and maintained by partitionOrders —
// so the scan is a pure linear pass: no sort, no scratch, no
// allocation. The running sums accumulate in exactly the order the
// seed's prefix-sum arrays did, so every SDR value, tie-break, and
// midpoint threshold is bit-identical to the sort-per-node
// implementation.
func (b *builder) bestSplitForAttr(lo, hi, a int) (threshold, bestSDR float64, ok bool) {
	n := hi - lo
	minLeaf := b.opts.MinLeaf
	if n < 2*minLeaf {
		return 0, 0, false
	}
	// A column holding a non-finite value admits no split: NaN breaks
	// the order invariant (every comparison is unordered). Ingest
	// rejects non-finite data; the flag is the build-start backstop for
	// datasets assembled in memory.
	if b.badAttr[a] {
		return 0, 0, false
	}
	sdAll := popSDRange(b.ys, lo, hi)
	if !(sdAll > 0) { // zero spread, or NaN from a corrupt response
		return 0, 0, false
	}
	ord := b.attrOrd[a][lo:hi]
	col := b.cols[a]
	ycol := b.ycol
	// Totals first, in ascending-value order — the same accumulation the
	// seed's prefix-sum construction performed.
	var sum, sumsq float64
	for _, id := range ord {
		y := ycol[id]
		sum += y
		sumsq += y * y
	}
	// One forward pass over the value boundaries, carrying the left-side
	// running sums (identical floats to the seed's prefixSum[cut] /
	// prefixSq[cut] lookups).
	var runSum, runSq float64
	for i := 0; i < n-1; i++ {
		y := ycol[ord[i]]
		runSum += y
		runSq += y * y
		cut := i + 1
		if cut < minLeaf {
			continue
		}
		if cut > n-minLeaf {
			break
		}
		v0 := col[ord[i]]
		v1 := col[ord[i+1]]
		if v0 == v1 {
			continue // not a value boundary
		}
		sdL := sdFromSums(runSum, runSq, cut)
		sdR := sdFromSums(sum-runSum, sumsq-runSq, n-cut)
		sdr := sdAll - (float64(cut)/float64(n))*sdL - (float64(n-cut)/float64(n))*sdR
		if sdr > bestSDR+1e-15 {
			bestSDR = sdr
			threshold = (v0 + v1) / 2
			ok = true
		}
	}
	return threshold, bestSDR, ok
}

// fitModels attaches a simplified linear model to every node of the
// unpruned tree. Interior nodes regress on the attributes appearing in
// splits of their subtree (Quinlan's restriction); original leaves, which
// have no subtree, regress on all attributes and rely on the greedy
// simplification step to discard useless terms. Child ranges are read
// straight off the partition grow already performed, so no node copies or
// re-partitions anything.
func (b *builder) fitModels(n *Node, lo, hi int) {
	if b.stopped() {
		return // leaves Model nil; BuildContext reports the error instead
	}
	if n.IsLeaf() {
		n.Model = b.fitSimplified(lo, hi, allAttrTerms(b.xs[lo]))
		return
	}
	mid := lo + n.Left.N
	b.forkJoin(hi-lo,
		func() { b.fitModels(n.Left, lo, mid) },
		func() { b.fitModels(n.Right, mid, hi) })
	n.Model = b.fitSimplified(lo, hi, subtreeSplitAttrs(n))
}

// fitSimplified fits a linear model over [lo,hi) on the given terms and
// greedily drops terms under the compensated-error criterion. It degrades
// to a constant model when regression fails, no terms are given, or the
// observations cannot support even a one-term basis.
func (b *builder) fitSimplified(lo, hi int, terms []int) *linreg.Model {
	xs := b.xs[lo:hi]
	ys := b.ys[lo:hi]
	n := hi - lo
	if len(terms) == 0 {
		return linreg.FitConstant(ys)
	}
	if n <= len(terms)+2 {
		// Truncate the basis until the system is over-determined. The
		// cap at n-3 guarantees n > len(terms)+2 after truncation; the
		// old n/2 heuristic alone could still hand linreg.Fit an
		// under-determined system (e.g. n==4 kept 2 terms).
		keep := min(n/2, n-3)
		if keep < 1 {
			return linreg.FitConstant(ys)
		}
		if keep < len(terms) {
			terms = terms[:keep]
		}
	}
	m, err := linreg.Fit(xs, ys, terms)
	if err != nil {
		return linreg.FitConstant(ys)
	}
	return linreg.Simplify(m, xs, ys)
}

// prune walks bottom-up, replacing a subtree with its node-level model
// whenever the model's compensated error is no worse than PruningFactor
// times the subtree's. It returns the estimated error of whatever remains
// at n. Sibling subtrees are pruned concurrently; the parent's decision
// waits on both children's errors.
func (b *builder) prune(n *Node, lo, hi int) float64 {
	if b.stopped() {
		return 0 // a canceled fitModels may have left Model nil; don't touch it
	}
	modelErr := linreg.CompensatedError(n.Model, b.xs[lo:hi], b.ys[lo:hi])
	if n.IsLeaf() {
		return modelErr
	}
	mid := lo + n.Left.N
	var eL, eR float64
	b.forkJoin(hi-lo,
		func() { eL = b.prune(n.Left, lo, mid) },
		func() { eR = b.prune(n.Right, mid, hi) })
	subtreeErr := (float64(mid-lo)*eL + float64(hi-mid)*eR) / float64(hi-lo)
	if modelErr <= subtreeErr*b.opts.PruningFactor {
		// Collapse to a leaf carrying the node model.
		n.Left, n.Right = nil, nil
		return modelErr
	}
	return subtreeErr
}

// numberLeaves assigns LeafIDs in left-to-right order, matching the LM1,
// LM2, ... numbering of the paper's figures.
func (t *Tree) numberLeaves() {
	t.leaves = t.leaves[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			t.leaves = append(t.leaves, n)
			n.LeafID = len(t.leaves)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
}

// Classify returns the leaf that the sample vector falls into. The vector
// must be at least as wide as the tree's schema; batch callers use
// ClassifyLeavesCheckedContext, which validates widths.
func (t *Tree) Classify(x []float64) *Node {
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Attr] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// ErrSampleWidth is returned by the checked prediction entry points when a
// sample vector does not match the tree's schema width.
var ErrSampleWidth = errors.New("mtree: sample width does not match tree schema")

// checkDataset validates the dataset's schema width and every sample row
// against the tree's schema. Split attributes and model terms are
// guaranteed (by Build) or validated (by ReadJSON) to lie inside the
// schema, so schema width is the exact requirement for safe evaluation.
func (t *Tree) checkDataset(d *dataset.Dataset) error {
	if t.Schema == nil || t.Root == nil {
		return errors.New("mtree: tree has no schema or root")
	}
	w := t.Schema.NumAttrs()
	if d.Schema.NumAttrs() != w {
		return fmt.Errorf("%w: got %d attributes, schema has %d", ErrSampleWidth, d.Schema.NumAttrs(), w)
	}
	for i := range d.Samples {
		if len(d.Samples[i].X) != w {
			return fmt.Errorf("%w: sample %d has %d attributes, schema has %d",
				ErrSampleWidth, i, len(d.Samples[i].X), w)
		}
	}
	return nil
}

// ClassifyLeavesCheckedContext validates the dataset against the tree's
// schema (ErrSampleWidth on a schema or row width mismatch) and returns
// the 1-based LeafID of every sample — the interpreted counterpart of
// CompiledTree.ClassifyLeavesCheckedContext, kept so characterization
// can run on either form. Samples are classified in fixed chunks across
// the tree's worker pool with the cancellation and panic containment of
// PredictDatasetCheckedContext.
func (t *Tree) ClassifyLeavesCheckedContext(ctx context.Context, d *dataset.Dataset) ([]int, error) {
	if err := t.checkDataset(d); err != nil {
		return nil, err
	}
	out := make([]int, d.Len())
	err := forRangesCtx(ctx, d.Len(), effectiveWorkers(t.Opts.Workers), "mtree.predict.chunk", func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.Classify(d.Samples[i].X).LeafID
		}
	})
	if err != nil {
		return nil, fmt.Errorf("mtree: leaf classification: %w", err)
	}
	return out, nil
}

// Predict returns the tree's prediction for the sample vector, applying
// M5 smoothing along the root path when enabled. The vector must match
// the tree's schema width; batch callers use PredictDatasetCheckedContext,
// which validates widths.
func (t *Tree) Predict(x []float64) float64 {
	if !t.Opts.Smooth {
		return t.Classify(x).Model.Predict(x)
	}
	return t.predictSmoothed(t.Root, x)
}

// predictSmoothed implements Quinlan's smoothing: the child's prediction p
// is blended with the node model's prediction q as (n*p + k*q)/(n + k),
// where n is the child's training population.
func (t *Tree) predictSmoothed(n *Node, x []float64) float64 {
	if n.IsLeaf() {
		return n.Model.Predict(x)
	}
	child := n.Left
	if x[n.Attr] > n.Threshold {
		child = n.Right
	}
	p := t.predictSmoothed(child, x)
	q := n.Model.Predict(x)
	k := t.Opts.SmoothingK
	return (float64(child.N)*p + k*q) / (float64(child.N) + k)
}

// predictParallelMin is the dataset size below which batch prediction
// stays serial; smaller batches finish before the goroutines would spin
// up.
const predictParallelMin = 512

// predictChunk is the work quantum of cancellable batch scoring: workers
// pull fixed chunks off an atomic counter, so cancellation is observed
// within one chunk of work regardless of dataset size, and every chunk
// still writes a disjoint output range (the result is positionally
// identical to a serial pass).
const predictChunk = 2048

// forRangesCtx fans [0,n) out in fixed chunks across a worker pool with
// cooperative cancellation and panic containment. fn must only write state
// owned by its [lo,hi) range. Returns the wrapped context error when
// canceled, the contained *robust.PanicError when fn panics, or an
// injected fault at the named site.
func forRangesCtx(ctx context.Context, n, workers int, site string, fn func(lo, hi int)) error {
	return forRangesChunkCtx(ctx, n, workers, predictChunk, site, fn)
}

// forRangesChunkCtx is forRangesCtx with an explicit chunk size. The
// blocked scoring kernels use a chunk that is a multiple of their lane
// block, so absolute block boundaries — and therefore the floating-point
// evaluation order within each block — are identical at every worker
// count.
func forRangesChunkCtx(ctx context.Context, n, workers, chunk int, site string, fn func(lo, hi int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	body := func() error {
		faultinject.Sleep(site)
		faultinject.CheckPanic(site)
		return faultinject.Check(site)
	}
	if workers <= 1 || n < predictParallelMin {
		// The serial path gets the same containment and per-chunk
		// cancellation checks as the pool.
		return robust.Safely(func() error {
			for lo := 0; lo < n; lo += chunk {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := body(); err != nil {
					return err
				}
				fn(lo, min(lo+chunk, n))
			}
			return nil
		})
	}
	var next atomic.Int64
	g, gctx := robust.NewGroup(ctx, workers)
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			for {
				if gctx.Err() != nil {
					return nil // Wait surfaces the cause
				}
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return nil
				}
				if err := body(); err != nil {
					return err
				}
				fn(lo, min(lo+chunk, n))
			}
		})
	}
	return g.Wait()
}

// PredictDatasetCheckedContext validates the dataset against the tree's
// schema (width of the schema and of every sample row) and returns
// predictions for every sample — the safe entry point for datasets
// loaded from external files. Large batches are scored in fixed chunks
// across the tree's worker pool; every chunk writes a disjoint range of
// the output, so the result is identical to a serial pass. A canceled
// context returns a wrapped ctx.Err() at the next chunk boundary and a
// panicking scoring worker is contained and returned as an error.
func (t *Tree) PredictDatasetCheckedContext(ctx context.Context, d *dataset.Dataset) ([]float64, error) {
	if err := t.checkDataset(d); err != nil {
		return nil, err
	}
	workers := effectiveWorkers(t.Opts.Workers)
	_, span := obs.FromContext(ctx).StartSpan(ctx, "mtree.predict",
		obs.A("compiled", false), obs.A("workers", workers))
	span.SetRows(d.Len())
	defer span.End()
	out := make([]float64, d.Len())
	err := forRangesCtx(ctx, d.Len(), workers, "mtree.predict.chunk", func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.Predict(d.Samples[i].X)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("mtree: batch prediction: %w", err)
	}
	return out, nil
}

// NumNodes returns the total node count of the pointer tree, interior
// plus leaves.
func (t *Tree) NumNodes() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		if n.IsLeaf() {
			return 1
		}
		return 1 + walk(n.Left) + walk(n.Right)
	}
	return walk(t.Root)
}

// Summarize describes the trained tree for a run manifest: structural
// size plus the split attributes in breadth-first first-appearance order
// (the paper's factor-importance reading). Everything in the summary is
// deterministic for a fixed training configuration.
func (t *Tree) Summarize(name string) obs.TreeSummary {
	var attrs []string
	for _, a := range t.SplitAttributes() {
		if a >= 0 && a < len(t.Schema.Attributes) {
			attrs = append(attrs, t.Schema.Attributes[a])
		}
	}
	return obs.TreeSummary{
		Name:       name,
		Leaves:     t.NumLeaves(),
		Nodes:      t.NumNodes(),
		Depth:      t.Depth(),
		SplitAttrs: attrs,
	}
}

// Depth returns the maximum depth of the tree (a lone root has depth 1).
func (t *Tree) Depth() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		if n.IsLeaf() {
			return 1
		}
		l, r := walk(n.Left), walk(n.Right)
		if r > l {
			l = r
		}
		return l + 1
	}
	return walk(t.Root)
}

// SplitAttributes returns the distinct attribute indices used in splits,
// ordered by first (breadth-first) appearance — the paper reads this
// ordering as the importance ranking of performance factors.
func (t *Tree) SplitAttributes() []int {
	var out []int
	seen := make(map[int]bool)
	queue := []*Node{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.IsLeaf() {
			continue
		}
		if !seen[n.Attr] {
			seen[n.Attr] = true
			out = append(out, n.Attr)
		}
		queue = append(queue, n.Left, n.Right)
	}
	return out
}

// subtreeSplitAttrs collects the distinct attributes used in splits of the
// subtree rooted at n, in ascending order.
func subtreeSplitAttrs(n *Node) []int {
	seen := make(map[int]bool)
	var walk func(m *Node)
	walk = func(m *Node) {
		if m.IsLeaf() {
			return
		}
		seen[m.Attr] = true
		walk(m.Left)
		walk(m.Right)
	}
	walk(n)
	out := make([]int, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Ints(out) // deterministic order
	return out
}

func allAttrTerms(row []float64) []int {
	out := make([]int, len(row))
	for i := range out {
		out[i] = i
	}
	return out
}

// meanRange is the mean of ys[lo:hi].
func meanRange(ys []float64, lo, hi int) float64 {
	if hi <= lo {
		return 0
	}
	var s float64
	for _, y := range ys[lo:hi] {
		s += y
	}
	return s / float64(hi-lo)
}

// popSDRange is the population standard deviation of ys[lo:hi].
func popSDRange(ys []float64, lo, hi int) float64 {
	if hi <= lo {
		return 0
	}
	var s, sq float64
	for _, y := range ys[lo:hi] {
		s += y
		sq += y * y
	}
	return sdFromSums(s, sq, hi-lo)
}

func sdFromSums(sum, sumsq float64, n int) float64 {
	if n == 0 {
		return 0
	}
	fn := float64(n)
	v := sumsq/fn - (sum/fn)*(sum/fn)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
