package uarch

import (
	"errors"
	"fmt"

	"specchar/internal/pmu"
	"specchar/internal/trace"
)

// Config describes the simulated core: structure geometries and the cycle
// cost model. DefaultConfig matches the paper's platform (Intel Core 2
// Duo, 32 KB split L1, 4 MB shared L2) at the granularity this study
// needs.
type Config struct {
	// Cache geometry.
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	LineBytes        int

	// TLB geometry (4 KiB pages).
	DTLBEntries, DTLBWays int
	ITLBEntries, ITLBWays int
	PageBytes             int

	// Branch predictor table bits.
	PredictorBits uint

	// Cost model, in cycles. Memory-level penalties are divided by the
	// phase's ILP factor before accumulating, modeling miss/work overlap.
	BaseCPI         float64 // issue cost per op on the 4-wide core
	L1DMissPenalty  float64 // L1D miss, L2 hit (data load)
	L2MissPenalty   float64 // L2 miss to memory (demand, unprefetched)
	PrefetchPenalty float64 // L2 miss on a detected sequential stream: the
	// hardware prefetcher has (mostly) covered the latency
	StoreMissPenalty  float64 // store miss (RFO, mostly hidden)
	L1IMissPenalty    float64 // instruction fetch from L2
	IFetchMemPenalty  float64 // instruction fetch from memory
	PageWalkPenalty   float64 // hardware page walk
	MispredictPenalty float64
	SplitPenalty      float64 // cache-line-split access
	MisalignPenalty   float64 // misaligned (non-split) access
	LdBlkStAPenalty   float64 // load blocked: store address unknown
	LdBlkStdPenalty   float64 // load blocked: store data not ready
	LdBlkOlpPenalty   float64 // load blocked: partial overlap, wait for retire
	MulCost           float64 // extra cycles per multiply
	DivCost           float64 // extra cycles per divide (unpipelined)
	SIMDCost          float64 // extra cycles per SIMD op
	FpAssistPenalty   float64 // microcode assist

	// Store-blocking windows, in op distance between the load and the
	// store it depends on: a dependence closer than StAWindow blocks on
	// the unknown store address; closer than StdWindow on unready data;
	// a partial overlap closer than RetireWindow blocks until the store
	// retires.
	StAWindow    int
	StdWindow    int
	RetireWindow int
}

// DefaultConfig returns the Core 2-class configuration used throughout
// the reproduction.
func DefaultConfig() Config {
	return Config{
		L1ISize: 32 << 10, L1IWays: 8,
		L1DSize: 32 << 10, L1DWays: 8,
		L2Size: 4 << 20, L2Ways: 16,
		LineBytes:   64,
		DTLBEntries: 256, DTLBWays: 4,
		ITLBEntries: 128, ITLBWays: 4,
		PageBytes:     4096,
		PredictorBits: 16,

		BaseCPI:           0.27,
		L1DMissPenalty:    14,
		L2MissPenalty:     165,
		PrefetchPenalty:   28,
		StoreMissPenalty:  3,
		L1IMissPenalty:    9,
		IFetchMemPenalty:  120,
		PageWalkPenalty:   48,
		MispredictPenalty: 13,
		SplitPenalty:      6,
		MisalignPenalty:   3,
		LdBlkStAPenalty:   5,
		LdBlkStdPenalty:   6,
		LdBlkOlpPenalty:   16,
		MulCost:           0.4,
		DivCost:           18,
		SIMDCost:          0.45,
		FpAssistPenalty:   90,

		StAWindow:    2,
		StdWindow:    5,
		RetireWindow: 30,
	}
}

// Validate checks structural parameters; cost-model fields may be any
// non-negative value.
func (c *Config) Validate() error {
	if c.LineBytes <= 0 || c.PageBytes <= 0 {
		return errors.New("uarch: line and page sizes must be positive")
	}
	if c.StAWindow > c.StdWindow || c.StdWindow > c.RetireWindow {
		return fmt.Errorf("uarch: blocking windows must be ordered StA(%d) <= Std(%d) <= Retire(%d)",
			c.StAWindow, c.StdWindow, c.RetireWindow)
	}
	if c.BaseCPI <= 0 {
		return errors.New("uarch: BaseCPI must be positive")
	}
	return nil
}

// Core simulates one processor core.
type Core struct {
	cfg  Config
	l1i  *Cache
	l1d  *Cache
	l2   *Cache
	dtlb *TLB
	itlb *TLB
	bp   *BranchPredictor

	// streamTrackers model the hardware stream prefetcher: each slot
	// remembers the last missing line of one detected stream. An L2 miss
	// on the successor of any tracked line is treated as prefetched
	// (short catch-up latency, no demand-miss event); other misses pay
	// full memory latency and allocate a tracker. Multiple slots let
	// interleaved streams and stray accesses coexist without resetting
	// each other's detection, as on real prefetchers.
	streamTrackers [8]uint64
	nextTracker    int
}

// NewCore builds a core from the configuration.
func NewCore(cfg Config) (*Core, error) {
	return newCore(cfg, nil)
}

// NewCorePair builds two cores with private first-level structures (L1I,
// L1D, TLBs, predictor) sharing a single L2 — the topology of the paper's
// Core 2 Duo. Ops run on either core contend for L2 capacity, which is
// how the shared-cache interference of a parallel (OMP) workload is
// modeled. Resetting either core clears the shared L2 too.
func NewCorePair(cfg Config) (*Core, *Core, error) {
	a, err := newCore(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	b, err := newCore(cfg, a.l2)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// newCore builds a core; a non-nil sharedL2 is adopted instead of
// allocating a private one.
func newCore(cfg Config, sharedL2 *Cache) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var err error
	c := &Core{cfg: cfg}
	if c.l1i, err = NewCache(cfg.L1ISize, cfg.L1IWays, cfg.LineBytes); err != nil {
		return nil, fmt.Errorf("uarch: L1I: %w", err)
	}
	if c.l1d, err = NewCache(cfg.L1DSize, cfg.L1DWays, cfg.LineBytes); err != nil {
		return nil, fmt.Errorf("uarch: L1D: %w", err)
	}
	if sharedL2 != nil {
		c.l2 = sharedL2
	} else if c.l2, err = NewCache(cfg.L2Size, cfg.L2Ways, cfg.LineBytes); err != nil {
		return nil, fmt.Errorf("uarch: L2: %w", err)
	}
	if c.dtlb, err = NewTLB(cfg.DTLBEntries, cfg.DTLBWays, cfg.PageBytes); err != nil {
		return nil, fmt.Errorf("uarch: DTLB: %w", err)
	}
	if c.itlb, err = NewTLB(cfg.ITLBEntries, cfg.ITLBWays, cfg.PageBytes); err != nil {
		return nil, fmt.Errorf("uarch: ITLB: %w", err)
	}
	c.bp = NewBranchPredictor(cfg.PredictorBits)
	return c, nil
}

// Preload walks the address range line by line through the data
// hierarchy without counting events, bringing a phase's working set to
// its steady-state residency before measurement begins (on real hardware
// the compulsory-miss transient is an immeasurably small fraction of a
// benchmark's billions of instructions; in a short simulation it would
// otherwise dominate). Ranges beyond twice the L2 size are truncated —
// the excess would only evict itself.
func (c *Core) Preload(base uint64, span int) {
	if span <= 0 {
		return
	}
	if max := 2 * c.cfg.L2Size; span > max {
		span = max
	}
	line := uint64(c.cfg.LineBytes)
	for addr := base; addr < base+uint64(span); addr += line {
		c.l1d.Access(addr)
		c.l2.Access(addr)
	}
}

// PreloadCode walks the address range line by line through the
// instruction side (L1I and L2), the code analogue of Preload.
func (c *Core) PreloadCode(base uint64, span int) {
	if span <= 0 {
		return
	}
	if max := 2 * c.cfg.L2Size; span > max {
		span = max
	}
	line := uint64(c.cfg.LineBytes)
	for addr := base; addr < base+uint64(span); addr += line {
		c.l1i.Access(addr)
		c.l2.Access(addr)
	}
}

// Run executes nOps ops from the generator and returns the window's raw
// event counts and cycle total. Microarchitectural state persists across
// calls, so consecutive windows behave like a continuing execution (the
// first window after Reset carries cold-start transients, as on real
// hardware).
func (c *Core) Run(gen *trace.Generator, nOps int) pmu.Counts {
	counts, _ := c.RunStack(gen, nOps)
	return counts
}

// RunStack is Run with exact cycle attribution: alongside the PMU-visible
// counts it returns the CPI stack recording which mechanism each cycle
// was charged to — ground truth the paper's regression models can only
// estimate from counter correlations.
func (c *Core) RunStack(gen *trace.Generator, nOps int) (pmu.Counts, CPIStack) {
	cfg := &c.cfg
	ilp := gen.Phase().ILP
	if ilp < 1 {
		ilp = 1
	}
	// Each ILP-scaled penalty is divided once here rather than per event:
	// the same division yields the same float64, and the stack still adds
	// it event by event in the same order.
	win := window{
		pageWalk:  cfg.PageWalkPenalty / ilp,
		l1iMiss:   cfg.L1IMissPenalty / ilp,
		ifetchMem: cfg.IFetchMemPenalty / ilp,
		l1dMiss:   cfg.L1DMissPenalty / ilp,
		prefetch:  cfg.PrefetchPenalty / ilp,
		l2Miss:    cfg.L2MissPenalty / ilp,
		storeMiss: cfg.StoreMissPenalty / ilp,
	}
	st := &win.st
	ev := &win.ev
	st[StackBase] = cfg.BaseCPI * float64(nOps)

	var op trace.Op
	for i := 0; i < nOps; i++ {
		gen.NextInto(&op)

		// Instruction-side: every op fetches through L1I/ITLB.
		if !c.itlb.Access(op.PC) {
			ev[pmu.PageWalk]++
			st[StackPageWalk] += win.pageWalk
		}
		if !c.l1i.Access(op.PC) {
			ev[pmu.L1IMiss]++
			if c.l2.Access(op.PC) {
				st[StackIFetch] += win.l1iMiss
			} else {
				st[StackIFetch] += win.ifetchMem
			}
		}

		switch op.Kind {
		case trace.Load:
			ev[pmu.Load]++
			c.load(&op, &win)
		case trace.Store:
			ev[pmu.Store]++
			c.store(&op, &win)
		case trace.Branch:
			ev[pmu.Br]++
			if !c.bp.Predict(op.PC, op.Taken) {
				ev[pmu.MisprBr]++
				st[StackBranch] += cfg.MispredictPenalty
			}
		case trace.Mul:
			ev[pmu.Mul]++
			st[StackCompute] += cfg.MulCost
		case trace.Div:
			ev[pmu.Div]++
			st[StackCompute] += cfg.DivCost
		case trace.SIMDOp:
			ev[pmu.SIMD]++
			st[StackCompute] += cfg.SIMDCost
			if op.FpAssist {
				ev[pmu.FpAsst]++
				st[StackFpAssist] += cfg.FpAssistPenalty
			}
		}
	}
	// Integer counts convert exactly: each is at most 2·nOps, far below
	// 2⁵³, so the float64 equals the sum of the per-event increments.
	var w pmu.Counts
	w.Instructions = float64(nOps)
	for e, n := range ev {
		w.Ev[e] = float64(n)
	}
	w.Cycles = st.Total()
	return w, *st
}

// window is the running state of one RunStack call: the integer event
// counts, the CPI stack, and the call's ILP-scaled penalties.
type window struct {
	ev [pmu.NumEvents]uint64
	st CPIStack

	pageWalk, l1iMiss, ifetchMem, l1dMiss, prefetch, l2Miss, storeMiss float64
}

// load simulates one load, charging its cycle costs into the window.
func (c *Core) load(op *trace.Op, win *window) {
	cfg := &c.cfg
	ev, st := &win.ev, &win.st

	// Store-to-load interactions first: a load whose data comes from a
	// recent store hits the store buffer, not the cache.
	if op.AliasDist >= 0 {
		switch {
		case op.AliasDist <= cfg.StAWindow:
			ev[pmu.LdBlkStA]++
			st[StackStoreBlock] += cfg.LdBlkStAPenalty
		case op.AliasDist <= cfg.StdWindow:
			ev[pmu.LdBlkStd]++
			st[StackStoreBlock] += cfg.LdBlkStdPenalty
		case op.PartialOverlap && op.AliasDist <= cfg.RetireWindow:
			ev[pmu.LdBlkOlp]++
			st[StackStoreBlock] += cfg.LdBlkOlpPenalty
		}
		// Forwarded (or just-blocked-then-forwarded) loads do not touch
		// the memory hierarchy.
		return
	}

	c.alignmentCost(op, win, pmu.SplitLoad)

	if !c.dtlb.Access(op.Addr) {
		ev[pmu.DtlbMiss]++
		ev[pmu.PageWalk]++
		st[StackPageWalk] += win.pageWalk
	}
	if !c.l1d.Access(op.Addr) {
		ev[pmu.L1DMiss]++
		if c.l2.Access(op.Addr) {
			st[StackL1D] += win.l1dMiss
		} else {
			// Demand load misses count as retired-load L2 misses whether
			// or not the stream prefetcher has the line in flight — the
			// PMU counts the miss; the prefetcher only hides its latency.
			ev[pmu.L2Miss]++
			if c.prefetched(op.Addr >> c.l2.lineShift) {
				st[StackPrefetch] += win.prefetch
			} else {
				st[StackL2] += win.l2Miss
			}
		}
	}
}

// store simulates one store, charging its cycle costs into the window.
// Store misses are mostly hidden by the store buffer; they perturb cache
// and TLB state but carry only a small direct penalty, and the PMU's
// load-centric miss events do not count them.
func (c *Core) store(op *trace.Op, win *window) {
	c.alignmentCost(op, win, pmu.SplitStore)
	if !c.dtlb.Access(op.Addr) {
		win.ev[pmu.DtlbMiss]++
		win.ev[pmu.PageWalk]++
		win.st[StackPageWalk] += win.pageWalk
	}
	if !c.l1d.Access(op.Addr) {
		if !c.l2.Access(op.Addr) {
			// Keep the stream prefetcher's view of miss sequences
			// coherent: store misses advance the same streams as loads
			// (the penalty stays small — RFOs hide behind the store
			// buffer either way).
			c.prefetched(op.Addr >> c.l2.lineShift)
		}
		win.st[StackStoreMiss] += win.storeMiss
	}
}

// alignmentCost counts split/misaligned accesses and charges their cost.
func (c *Core) alignmentCost(op *trace.Op, win *window, splitEvent pmu.EventID) {
	cfg := &c.cfg
	misaligned := op.Size > 0 && op.Addr%uint64(op.Size) != 0
	if misaligned {
		win.ev[pmu.Misalign]++
		win.st[StackAlign] += cfg.MisalignPenalty
	}
	if c.l1d.Splits(op.Addr, op.Size) {
		win.ev[splitEvent]++
		win.st[StackAlign] += cfg.SplitPenalty
	}
}

// prefetched consumes one L2 miss line: it reports whether a stream
// tracker predicted it, updating the matching tracker or allocating a new
// one round-robin.
func (c *Core) prefetched(line uint64) bool {
	for i := range c.streamTrackers {
		if line == c.streamTrackers[i]+1 {
			c.streamTrackers[i] = line
			return true
		}
	}
	c.streamTrackers[c.nextTracker] = line
	c.nextTracker = (c.nextTracker + 1) % len(c.streamTrackers)
	return false
}
