package uarch

import (
	"math"
	"testing"

	"specchar/internal/dataset"
	"specchar/internal/pmu"
	"specchar/internal/trace"
)

func newTestCore(t *testing.T) *Core {
	t.Helper()
	c, err := NewCore(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runPhase(t *testing.T, c *Core, p trace.Phase, seed uint64, nOps int) pmu.Counts {
	t.Helper()
	g, err := trace.NewGenerator(p, dataset.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c.Run(g, nOps)
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.LineBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero line size should fail")
	}
	bad = DefaultConfig()
	bad.StAWindow = 100 // > StdWindow
	if err := bad.Validate(); err == nil {
		t.Error("disordered windows should fail")
	}
	bad = DefaultConfig()
	bad.BaseCPI = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero BaseCPI should fail")
	}
}

func TestNewCoreRejectsBadGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1DSize = 1000 // not divisible
	if _, err := NewCore(cfg); err == nil {
		t.Error("bad L1D geometry should fail")
	}
	cfg = DefaultConfig()
	cfg.DTLBEntries = 255
	if _, err := NewCore(cfg); err == nil {
		t.Error("bad DTLB geometry should fail")
	}
}

func TestRunBasicAccounting(t *testing.T) {
	c := newTestCore(t)
	p := trace.Phase{Weight: 1, LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1}
	// One warm-up window amortizes the compulsory misses of cold caches,
	// as the suite generator does before sampling.
	runPhase(t, c, p, 1, 20000)
	w := runPhase(t, c, p, 1, 20000)
	if w.Instructions != 20000 {
		t.Errorf("Instructions = %v", w.Instructions)
	}
	if w.Cycles <= 0 {
		t.Error("no cycles accumulated")
	}
	cpi := w.CPI()
	if cpi < 0.2 || cpi > 5 {
		t.Errorf("CPI = %v outside plausible range", cpi)
	}
	// Mix events track the generated mix.
	if got := w.Ev[pmu.Load] / w.Instructions; math.Abs(got-0.3) > 0.02 {
		t.Errorf("Load density = %v, want ~0.3", got)
	}
	if got := w.Ev[pmu.Store] / w.Instructions; math.Abs(got-0.1) > 0.02 {
		t.Errorf("Store density = %v, want ~0.1", got)
	}
	if got := w.Ev[pmu.Br] / w.Instructions; math.Abs(got-0.1) > 0.02 {
		t.Errorf("Br density = %v, want ~0.1", got)
	}
}

func TestSmallFootprintFewMisses(t *testing.T) {
	c := newTestCore(t)
	p := trace.Phase{
		Weight: 1, LoadFrac: 0.4,
		DataFootprint: 8 << 10, // fits L1D
		SeqFrac:       0.5,
		CodeFootprint: 4 << 10, // fits L1I
	}
	// Warm-up window, then measure.
	runPhase(t, c, p, 2, 20000)
	w := runPhase(t, c, p, 3, 50000)
	if rate := w.Ev[pmu.L1DMiss] / w.Ev[pmu.Load]; rate > 0.01 {
		t.Errorf("L1D miss rate %v for cache-resident footprint", rate)
	}
	if rate := w.Ev[pmu.DtlbMiss] / w.Instructions; rate > 0.001 {
		t.Errorf("DTLB miss density %v for two-page footprint", rate)
	}
	if w.Ev[pmu.L2Miss] > w.Ev[pmu.L1DMiss] {
		t.Error("L2 misses exceed L1D misses (impossible for loads)")
	}
}

func TestLargeFootprintDrivesMissHierarchy(t *testing.T) {
	c := newTestCore(t)
	p := trace.Phase{
		Weight: 1, LoadFrac: 0.4,
		DataFootprint: 64 << 20, // 64 MB >> L2
		SeqFrac:       0,        // fully random
	}
	w := runPhase(t, c, p, 4, 60000)
	l1Rate := w.Ev[pmu.L1DMiss] / w.Ev[pmu.Load]
	if l1Rate < 0.5 {
		t.Errorf("L1D miss rate %v for 64MB random footprint, want high", l1Rate)
	}
	if w.Ev[pmu.L2Miss] == 0 {
		t.Error("no L2 misses on 64MB footprint")
	}
	if w.Ev[pmu.DtlbMiss] == 0 {
		t.Error("no DTLB misses across 16K pages")
	}
	// Page walks include the DTLB-triggered ones.
	if w.Ev[pmu.PageWalk] < w.Ev[pmu.DtlbMiss] {
		t.Error("page walks fewer than DTLB misses")
	}
	// CPI must be much worse than a cache-resident run.
	c2 := newTestCore(t)
	small := trace.Phase{Weight: 1, LoadFrac: 0.4, DataFootprint: 8 << 10, SeqFrac: 0.5}
	w2 := runPhase(t, c2, small, 4, 60000)
	if w.CPI() < 2*w2.CPI() {
		t.Errorf("memory-bound CPI %v not clearly above cache-resident CPI %v", w.CPI(), w2.CPI())
	}
}

func TestBranchEntropyDrivesMispredicts(t *testing.T) {
	cLow := newTestCore(t)
	cHigh := newTestCore(t)
	base := trace.Phase{Weight: 1, BranchFrac: 0.2, CodeFootprint: 4 << 10}
	predictable := base
	predictable.BranchEntropy = 0
	random := base
	random.BranchEntropy = 1
	wLow := runPhase(t, cLow, predictable, 5, 50000)
	wHigh := runPhase(t, cHigh, random, 5, 50000)
	mLow := wLow.Ev[pmu.MisprBr] / wLow.Ev[pmu.Br]
	mHigh := wHigh.Ev[pmu.MisprBr] / wHigh.Ev[pmu.Br]
	if mHigh < 2.5*mLow {
		t.Errorf("entropy 1 mispredict rate %v not clearly above entropy 0 rate %v", mHigh, mLow)
	}
	if mLow > 0.2 {
		t.Errorf("biased branches mispredicted at %v, want well below 0.2", mLow)
	}
	if mHigh < 0.3 {
		t.Errorf("random branches mispredicted at %v, want near 0.5", mHigh)
	}
}

func TestStoreBlockClassification(t *testing.T) {
	c := newTestCore(t)
	p := trace.Phase{
		Weight: 1, LoadFrac: 0.3, StoreFrac: 0.2,
		StoreAliasRate:     0.8,
		PartialOverlapFrac: 0.5,
		DataFootprint:      1 << 16,
	}
	w := runPhase(t, c, p, 6, 80000)
	if w.Ev[pmu.LdBlkStA] == 0 {
		t.Error("no StA blocks despite heavy aliasing")
	}
	if w.Ev[pmu.LdBlkStd] == 0 {
		t.Error("no Std blocks despite heavy aliasing")
	}
	if w.Ev[pmu.LdBlkOlp] == 0 {
		t.Error("no overlap blocks despite PartialOverlapFrac 0.5")
	}
	// Without aliasing, no block events at all.
	c2 := newTestCore(t)
	clean := p
	clean.StoreAliasRate = 0
	w2 := runPhase(t, c2, clean, 6, 80000)
	if w2.Ev[pmu.LdBlkStA]+w2.Ev[pmu.LdBlkStd]+w2.Ev[pmu.LdBlkOlp] != 0 {
		t.Error("block events produced without aliasing")
	}
}

func TestMisalignAndSplitEvents(t *testing.T) {
	c := newTestCore(t)
	p := trace.Phase{
		Weight: 1, LoadFrac: 0.3, StoreFrac: 0.2,
		MisalignRate:  0.3,
		AccessSize:    16,
		DataFootprint: 1 << 16,
	}
	w := runPhase(t, c, p, 7, 50000)
	if w.Ev[pmu.Misalign] == 0 {
		t.Error("no misalign events at MisalignRate 0.3")
	}
	if w.Ev[pmu.SplitLoad] == 0 || w.Ev[pmu.SplitStore] == 0 {
		t.Error("no split events for misaligned 16B accesses")
	}
	c2 := newTestCore(t)
	aligned := p
	aligned.MisalignRate = 0
	w2 := runPhase(t, c2, aligned, 7, 50000)
	if w2.Ev[pmu.Misalign] != 0 {
		t.Error("misalign events with MisalignRate 0")
	}
	if w2.Ev[pmu.SplitLoad] != 0 {
		t.Error("split loads for naturally-aligned 16B accesses")
	}
}

func TestDivMulSIMDFpAssistCounted(t *testing.T) {
	c := newTestCore(t)
	p := trace.Phase{
		Weight: 1, MulFrac: 0.1, DivFrac: 0.05, SIMDFrac: 0.3,
		FpAssistRate: 0.02,
	}
	w := runPhase(t, c, p, 8, 50000)
	if got := w.Ev[pmu.Mul] / w.Instructions; math.Abs(got-0.1) > 0.01 {
		t.Errorf("Mul density = %v", got)
	}
	if got := w.Ev[pmu.Div] / w.Instructions; math.Abs(got-0.05) > 0.01 {
		t.Errorf("Div density = %v", got)
	}
	if got := w.Ev[pmu.SIMD] / w.Instructions; math.Abs(got-0.3) > 0.02 {
		t.Errorf("SIMD density = %v", got)
	}
	if w.Ev[pmu.FpAsst] == 0 {
		t.Error("no FP assists at FpAssistRate 0.02")
	}
	// Divides are expensive: CPI must exceed a div-free run.
	c2 := newTestCore(t)
	noDiv := p
	noDiv.DivFrac = 0
	w2 := runPhase(t, c2, noDiv, 8, 50000)
	if w.CPI() <= w2.CPI() {
		t.Errorf("div-heavy CPI %v not above div-free CPI %v", w.CPI(), w2.CPI())
	}
}

func TestILPReducesMemoryStalls(t *testing.T) {
	memBound := trace.Phase{
		Weight: 1, LoadFrac: 0.4,
		DataFootprint: 32 << 20, SeqFrac: 0,
	}
	lowILP := memBound
	lowILP.ILP = 1
	highILP := memBound
	highILP.ILP = 3
	c1 := newTestCore(t)
	c2 := newTestCore(t)
	w1 := runPhase(t, c1, lowILP, 9, 40000)
	w2 := runPhase(t, c2, highILP, 9, 40000)
	if w1.CPI() <= w2.CPI()*1.5 {
		t.Errorf("ILP 1 CPI %v not clearly above ILP 3 CPI %v", w1.CPI(), w2.CPI())
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := trace.Phase{Weight: 1, LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		DataFootprint: 1 << 20, BranchEntropy: 0.3}
	c1 := newTestCore(t)
	c2 := newTestCore(t)
	w1 := runPhase(t, c1, p, 11, 30000)
	w2 := runPhase(t, c2, p, 11, 30000)
	if w1 != w2 {
		t.Error("identical seeds produced different counts")
	}
}

func TestCorePairSharesL2(t *testing.T) {
	a, b, err := NewCorePair(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Whatever core A brings into L2, core B sees (after its own L1 miss).
	a.Preload(0x1000_0000, 64<<10)
	// B touching the same lines must hit L2: run a load-only phase over
	// the same region and observe no L2 misses... easier: verify the
	// shared pointer directly via a preloaded-line probe on B's L2.
	if a.l2 != b.l2 {
		t.Fatal("core pair does not share the L2")
	}
	if a.l1d == b.l1d || a.dtlb == b.dtlb || a.bp == b.bp {
		t.Fatal("core pair shares private structures")
	}
}

func TestCorePairContentionRaisesMisses(t *testing.T) {
	// A phase whose working set fits the shared L2 alone but not when a
	// sibling thread occupies half of it.
	p := trace.Phase{
		Weight: 1, LoadFrac: 0.4,
		DataFootprint: 3 << 20, // 3 MB of a 4 MB L2
		SeqFrac:       0.2, HotFrac: 0,
		ILP: 1.5,
	}
	run := func(withSibling bool) float64 {
		a, b, err := NewCorePair(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewGenerator(p, dataset.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		var sib *trace.Generator
		if withSibling {
			if sib, err = trace.NewGeneratorSlot(p, dataset.NewRNG(2), 1); err != nil {
				t.Fatal(err)
			}
			b.Preload(sib.DataRegion())
		}
		a.Preload(gen.DataRegion())
		a.Run(gen, 30000)
		var misses float64
		for w := 0; w < 10; w++ {
			if withSibling {
				b.Run(sib, 4096)
			}
			counts := a.Run(gen, 4096)
			misses += counts.Ev[pmu.L2Miss]
		}
		return misses
	}
	alone := run(false)
	contended := run(true)
	if contended <= alone*1.5 {
		t.Errorf("contention L2 misses (%v) not clearly above solo (%v)", contended, alone)
	}
}

func TestGeneratorSlotSeparatesRegions(t *testing.T) {
	p := trace.Phase{Weight: 1, LoadFrac: 0.5, DataFootprint: 1 << 20}
	g0, err := trace.NewGenerator(p, dataset.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := trace.NewGeneratorSlot(p, dataset.NewRNG(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	b0, s0 := g0.DataRegion()
	b1, s1 := g1.DataRegion()
	if s0 != s1 {
		t.Errorf("spans differ: %d vs %d", s0, s1)
	}
	if b1 <= b0 || b1-b0 < uint64(s0) {
		t.Errorf("slot regions overlap: base0 %#x base1 %#x span %d", b0, b1, s0)
	}
}

func TestRunStackConsistency(t *testing.T) {
	c := newTestCore(t)
	p := trace.Phase{Weight: 1, LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.15,
		DivFrac: 0.01, SIMDFrac: 0.1, DataFootprint: 2 << 20, HotFrac: 0.7,
		BranchEntropy: 0.4}
	g, err := trace.NewGenerator(p, dataset.NewRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	c.Preload(g.DataRegion())
	c.Run(g, 20000)
	counts, stack := c.RunStack(g, 30000)
	// The stack total must equal the counted cycles exactly.
	if math.Abs(stack.Total()-counts.Cycles) > 1e-6 {
		t.Errorf("stack total %v != cycles %v", stack.Total(), counts.Cycles)
	}
	// Base cycles are exact: BaseCPI per op.
	if want := c.cfg.BaseCPI * 30000; math.Abs(stack[StackBase]-want) > 1e-9 {
		t.Errorf("base cycles = %v, want %v", stack[StackBase], want)
	}
	// The phase exercises branches, compute and memory: those components
	// must be present.
	for _, comp := range []StackComponent{StackBranch, StackCompute, StackL1D} {
		if stack[comp] <= 0 {
			t.Errorf("component %s empty: %v", comp.Name(), stack[comp])
		}
	}
	// No component is negative; shares sum to 1.
	var shareSum float64
	for i, sh := range stack.Shares() {
		if stack[i] < 0 {
			t.Errorf("negative component %s", StackComponent(i).Name())
		}
		shareSum += sh
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("shares sum to %v", shareSum)
	}
}

func TestCPIStackOps(t *testing.T) {
	var a, b CPIStack
	a[StackBase] = 2
	b[StackBase] = 1
	b[StackL2] = 3
	a.Add(b)
	if a[StackBase] != 3 || a[StackL2] != 3 {
		t.Errorf("Add: %+v", a)
	}
	a.Scale(0.5)
	if a.Total() != 3 {
		t.Errorf("Scale/Total: %v", a.Total())
	}
	if StackL2.Name() != "L2" || StackComponent(99).Name() == "" {
		t.Error("component names broken")
	}
	if a.String() == "" {
		t.Error("String empty for non-empty stack")
	}
	var zero CPIStack
	if zero.Shares() != [NumStackComponents]float64{} {
		t.Error("zero stack shares should be zero")
	}
}

func TestRunStackMemoryBoundDominatedByL2(t *testing.T) {
	c := newTestCore(t)
	p := trace.Phase{Weight: 1, LoadFrac: 0.36,
		DataFootprint: 96 << 20, SeqFrac: 0.05, HotFrac: 0.94, ILP: 1.2}
	g, _ := trace.NewGenerator(p, dataset.NewRNG(43))
	c.Preload(g.DataRegion())
	c.Run(g, 20000)
	_, stack := c.RunStack(g, 40000)
	shares := stack.Shares()
	if shares[StackL2] < 0.3 {
		t.Errorf("memory-bound phase: L2 share %v, want dominant", shares[StackL2])
	}
}
