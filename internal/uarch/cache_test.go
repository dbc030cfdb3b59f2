package uarch

import (
	"fmt"
	"math/bits"
	"testing"

	"specchar/internal/dataset"
	"specchar/internal/trace"
)

// refCache is a plain true-LRU cache with tags, valid bits and stamps in
// three parallel slices, which fills the last empty way of a set. It is
// the reference Cache must match hit for hit.
type refCache struct {
	lineShift uint
	setMask   uint64
	ways      int
	tags      []uint64 // sets*ways entries; tag 0 means empty (valid bit below)
	valid     []bool
	used      []uint64 // LRU stamps
	tick      uint64
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	sets := sizeBytes / (ways * lineBytes)
	return &refCache{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(sets - 1),
		ways:      ways,
		tags:      make([]uint64, sets*ways),
		valid:     make([]bool, sets*ways),
		used:      make([]uint64, sets*ways),
	}
}

func (c *refCache) Access(addr uint64) bool {
	c.tick++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> bits.Len64(c.setMask)
	base := set * c.ways
	lruIdx, lruStamp := base, c.used[base]
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tags[i] == tag {
			c.used[i] = c.tick
			return true
		}
		if !c.valid[i] {
			// Prefer filling an invalid way.
			lruIdx, lruStamp = i, 0
		} else if c.used[i] < lruStamp {
			lruIdx, lruStamp = i, c.used[i]
		}
	}
	c.tags[lruIdx] = tag
	c.valid[lruIdx] = true
	c.used[lruIdx] = c.tick
	return false
}

func (c *refCache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.used[i] = 0
	}
	c.tick = 0
}

// geometry is a cache shape and the address shift that feeds it: a TLB
// is a cache of 1-byte lines over page numbers.
type geometry struct {
	name             string
	size, ways, line int
	shift            uint
}

func defaultGeometries() []geometry {
	cfg := DefaultConfig()
	page := uint(bits.TrailingZeros(uint(cfg.PageBytes)))
	return []geometry{
		{"L1D", cfg.L1DSize, cfg.L1DWays, cfg.LineBytes, 0},
		{"L2", cfg.L2Size, cfg.L2Ways, cfg.LineBytes, 0},
		{"DTLB", cfg.DTLBEntries, cfg.DTLBWays, 1, page},
		{"ITLB", cfg.ITLBEntries, cfg.ITLBWays, 1, page},
	}
}

// build returns the structure under test: a Cache, or for a TLB
// geometry a TLB, which does its own page shift.
func (g geometry) build(t *testing.T) (access func(uint64) bool, reset func()) {
	t.Helper()
	if g.shift > 0 {
		tlb, err := NewTLB(g.size, g.ways, 1<<g.shift)
		if err != nil {
			t.Fatal(err)
		}
		return tlb.Access, tlb.Reset
	}
	c, err := NewCache(g.size, g.ways, g.line)
	if err != nil {
		t.Fatal(err)
	}
	return c.Access, c.Reset
}

// addrStreams returns named address streams: uniform random over spans
// from inside L1D to far beyond L2, random 64-bit addresses, strides
// that revisit a window of lines, pages or whole set rows (every access
// to one set), and the data and instruction addresses of a simulated
// phase.
func addrStreams(t *testing.T) map[string][]uint64 {
	t.Helper()
	const n = 1 << 15
	rng := dataset.NewRNG(42)
	streams := map[string][]uint64{}
	for _, span := range []int{16 << 10, 256 << 10, 16 << 20, 1 << 30} {
		s := make([]uint64, n)
		for i := range s {
			s[i] = 0x10_0000_0000 + uint64(rng.Intn(span))
		}
		streams[fmt.Sprint("random/", span)] = s
	}
	full := make([]uint64, n)
	for i := range full {
		full[i] = rng.Uint64()
	}
	streams["random/full"] = full
	for _, stride := range []uint64{8, 64, 4 << 10, 128 << 10, 256 << 10, 1 << 20} {
		// Cycling windows below, at and just above the associativities
		// (4, 8 and 16 ways), and one far beyond every structure.
		for _, window := range []int{3, 8, 9, 16, 17, n / 4} {
			s := make([]uint64, n/4)
			for i := range s {
				s[i] = 0x40_0000 + uint64(i%window)*stride
			}
			streams[fmt.Sprint("stride/", stride, "x", window)] = s
		}
	}
	g, err := trace.NewGenerator(trace.Phase{
		LoadFrac: 0.36, StoreFrac: 0.08, BranchFrac: 0.14,
		DataFootprint: 64 << 20, SeqFrac: 0.05, HotFrac: 0.8, PageSpread: 4096,
		CodeFootprint: 64 << 10,
	}, dataset.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	var data, code []uint64
	for len(data) < n {
		op := g.Next()
		code = append(code, op.PC)
		if op.Kind == trace.Load || op.Kind == trace.Store {
			data = append(data, op.Addr)
		}
	}
	streams["phase/data"], streams["phase/code"] = data, code
	return streams
}

// TestCacheMatchesReference replays every stream through Cache (TLB for
// the TLB geometries) and the reference at the default L1D, L2, DTLB and
// ITLB geometries, resetting both halfway, and requires the same hit or
// miss on every access.
func TestCacheMatchesReference(t *testing.T) {
	streams := addrStreams(t)
	for _, g := range defaultGeometries() {
		for name, s := range streams {
			access, reset := g.build(t)
			ref := newRefCache(g.size, g.ways, g.line)
			for i, a := range s {
				if i == len(s)/2 {
					reset()
					ref.Reset()
				}
				if got, want := access(a), ref.Access(a>>g.shift); got != want {
					t.Fatalf("%s %s: access %d (%#x) hit=%v, reference %v", g.name, name, i, a, got, want)
				}
			}
		}
	}
}

// TestCorePairSharedL2MatchesReference drives the L2 a NewCorePair
// shares through both cores in alternating windows of two slot
// generators, with one Reset through the sibling core, against a single
// reference cache. The L2 is shrunk to 256 KiB so the two threads'
// 3 MiB footprints keep evicting each other.
func TestCorePairSharedL2MatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Size = 256 << 10
	a, b, err := NewCorePair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(cfg.L2Size, cfg.L2Ways, cfg.LineBytes)
	p := trace.Phase{LoadFrac: 0.4, StoreFrac: 0.1, DataFootprint: 3 << 20, SeqFrac: 0.2, HotFrac: 0.5}
	cores := []*Core{a, b}
	var gens []*trace.Generator
	for slot := range cores {
		g, err := trace.NewGeneratorSlot(p, dataset.NewRNG(uint64(slot+1)), slot)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	hits, n := 0, 0
	for w := 0; w < 128; w++ {
		if w == 64 {
			b.Reset()
			ref.Reset()
		}
		k := w % 2
		for i := 0; i < 1024; i++ {
			op := gens[k].Next()
			if op.Kind != trace.Load && op.Kind != trace.Store {
				continue
			}
			got, want := cores[k].l2.Access(op.Addr), ref.Access(op.Addr)
			if got != want {
				t.Fatalf("window %d core %d: access %#x hit=%v, reference %v", w, k, op.Addr, got, want)
			}
			if got {
				hits++
			}
			n++
		}
	}
	if hits == 0 || hits == n {
		t.Fatalf("shared L2 saw %d/%d hits; the stream exercises no replacement", hits, n)
	}
}

// FuzzCacheAccess replays arbitrary address streams, with Resets, through
// Cache and the reference at small geometries (1-8 sets, 1-8 ways,
// 1-128-byte lines) where every set fills and evicts within a few
// accesses, and requires the same hit or miss on every access.
func FuzzCacheAccess(f *testing.F) {
	f.Add(uint8(0x25), uint64(0x10_0000_0000), uint16(64), []byte{0, 1, 2, 0, 3, 4, 0xff, 1, 2})
	f.Add(uint8(0xff), uint64(1)<<63, uint16(1024), []byte("set-row thrash: every byte one line"))
	f.Add(uint8(0x1c), ^uint64(0), uint16(1), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Fuzz(func(t *testing.T, shape uint8, base uint64, stride uint16, ops []byte) {
		sets := 1 << (shape & 3)
		ways := 1 + int(shape>>2&7)
		line := 1 << (shape >> 5)
		if sets == 1 && line == 1 {
			line = 2 // NewCache rejects this geometry
		}
		c, err := NewCache(sets*ways*line, ways, line)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(sets*ways*line, ways, line)
		for i, op := range ops {
			if op == 0xff {
				c.Reset()
				ref.Reset()
				continue
			}
			addr := base + uint64(op)*uint64(stride)
			if got, want := c.Access(addr), ref.Access(addr); got != want {
				t.Fatalf("%d sets x %d ways x %d B: access %d (%#x) hit=%v, reference %v",
					sets, ways, line, i, addr, got, want)
			}
		}
	})
}

func TestNewCacheValidation(t *testing.T) {
	cases := []struct {
		name             string
		size, ways, line int
	}{
		{"zero size", 0, 8, 64},
		{"negative ways", 1024, -1, 64},
		{"size not divisible", 1000, 8, 64},
		{"sets not power of two", 64 * 8 * 3, 8, 64},
		{"line not power of two", 48 * 8 * 4, 8, 48},
		{"single set of 1-byte lines", 4, 4, 1},
	}
	for _, c := range cases {
		if _, err := NewCache(c.size, c.ways, c.line); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewCache(32<<10, 8, 64); err != nil {
		t.Errorf("valid cache rejected: %v", err)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c, _ := NewCache(1024, 2, 64)
	if c.Access(0x1000) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	// Same line, different offset.
	if !c.Access(0x103F) {
		t.Error("same-line access should hit")
	}
	// Next line.
	if c.Access(0x1040) {
		t.Error("next line should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets of 64B lines = 256 bytes.
	c, _ := NewCache(256, 2, 64)
	// Three lines mapping to the same set (stride = sets*line = 128).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a)
	c.Access(b)
	c.Access(a)      // a is now MRU
	if c.Access(d) { // evicts b (LRU)
		t.Error("d should miss")
	}
	if !c.Access(a) {
		t.Error("a should survive (was MRU)")
	}
	if c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestCacheWorkingSetBehaviour(t *testing.T) {
	// A working set that fits: after one warm pass, all hits.
	c, _ := NewCache(32<<10, 8, 64)
	for addr := uint64(0); addr < 16<<10; addr += 64 {
		c.Access(addr)
	}
	for addr := uint64(0); addr < 16<<10; addr += 64 {
		if !c.Access(addr) {
			t.Fatalf("warm access to %#x missed", addr)
		}
	}
	// A working set 4x the cache streams: every access misses when
	// cycling sequentially (LRU worst case).
	misses := 0
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 128<<10; addr += 64 {
			if !c.Access(addr) {
				misses++
			}
		}
	}
	total := 2 * (128 << 10) / 64
	if misses < total*9/10 {
		t.Errorf("streaming working set: %d/%d misses, expected ~all", misses, total)
	}
}

func TestCacheSplits(t *testing.T) {
	c, _ := NewCache(1024, 2, 64)
	if c.Splits(0, 8) {
		t.Error("aligned 8B access should not split")
	}
	if !c.Splits(60, 8) {
		t.Error("access crossing 64B boundary should split")
	}
	if c.Splits(56, 8) {
		t.Error("access ending exactly at boundary should not split")
	}
	if c.Splits(100, 0) {
		t.Error("zero-size access cannot split")
	}
}

func TestCacheReset(t *testing.T) {
	c, _ := NewCache(1024, 2, 64)
	c.Access(0x2000)
	c.Reset()
	if c.Access(0x2000) {
		t.Error("access after Reset should miss")
	}
}

func TestCacheLineBytes(t *testing.T) {
	c, _ := NewCache(1024, 2, 64)
	if c.LineBytes() != 64 {
		t.Errorf("LineBytes = %d", c.LineBytes())
	}
}

func TestNewTLBValidation(t *testing.T) {
	if _, err := NewTLB(255, 4, 4096); err == nil {
		t.Error("entries not divisible by ways should error")
	}
	if _, err := NewTLB(256, 4, 1000); err == nil {
		t.Error("non-power-of-two page should error")
	}
	if _, err := NewTLB(0, 1, 4096); err == nil {
		t.Error("zero entries should error")
	}
	if _, err := NewTLB(256, 4, 4096); err != nil {
		t.Errorf("valid TLB rejected: %v", err)
	}
}

func TestTLBPageGranularity(t *testing.T) {
	tlb, _ := NewTLB(16, 4, 4096)
	if tlb.Access(0x1000) {
		t.Error("cold translation should miss")
	}
	// Anywhere in the same page hits.
	if !tlb.Access(0x1FFF) {
		t.Error("same-page access should hit")
	}
	// Next page misses.
	if tlb.Access(0x2000) {
		t.Error("next page should miss")
	}
}

func TestTLBCapacity(t *testing.T) {
	tlb, _ := NewTLB(16, 4, 4096)
	// Touch 16 pages: fits exactly.
	for p := uint64(0); p < 16; p++ {
		tlb.Access(p * 4096)
	}
	hits := 0
	for p := uint64(0); p < 16; p++ {
		if tlb.Access(p * 4096) {
			hits++
		}
	}
	if hits != 16 {
		t.Errorf("16-page working set in 16-entry TLB: %d/16 hits", hits)
	}
	// 64 pages thrash it.
	tlb.Reset()
	misses := 0
	for pass := 0; pass < 2; pass++ {
		for p := uint64(0); p < 64; p++ {
			if !tlb.Access(p * 4096) {
				misses++
			}
		}
	}
	if misses < 100 {
		t.Errorf("thrashing working set produced only %d misses", misses)
	}
}

func TestTLBSpansPages(t *testing.T) {
	tlb, _ := NewTLB(16, 4, 4096)
	if tlb.SpansPages(4090, 4) {
		t.Error("access within page should not span")
	}
	if !tlb.SpansPages(4094, 4) {
		t.Error("access crossing page boundary should span")
	}
	if tlb.SpansPages(0, 0) {
		t.Error("zero-size access cannot span")
	}
}

func TestBranchPredictorLearnsBiasedBranch(t *testing.T) {
	bp := NewBranchPredictor(12)
	pc := uint64(0x400100)
	correct := 0
	for i := 0; i < 1000; i++ {
		if bp.Predict(pc, true) {
			correct++
		}
	}
	if correct < 950 {
		t.Errorf("always-taken branch predicted correctly only %d/1000", correct)
	}
}

func TestBranchPredictorLearnsPattern(t *testing.T) {
	// Alternating T/N is learnable through history correlation.
	bp := NewBranchPredictor(12)
	pc := uint64(0x400200)
	correct := 0
	for i := 0; i < 2000; i++ {
		if bp.Predict(pc, i%2 == 0) {
			correct++
		}
	}
	if correct < 1700 {
		t.Errorf("alternating branch predicted correctly only %d/2000", correct)
	}
}

func TestBranchPredictorRandomIsNearChance(t *testing.T) {
	bp := NewBranchPredictor(12)
	// xorshift for deterministic "random" outcomes
	x := uint64(88172645463325252)
	correct := 0
	const n = 20000
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if bp.Predict(uint64(0x400000)+uint64(i%64)*4, x&1 == 0) {
			correct++
		}
	}
	rate := float64(correct) / n
	if rate < 0.4 || rate > 0.65 {
		t.Errorf("random branches predicted at %.3f, expected near chance", rate)
	}
}

func TestBranchPredictorReset(t *testing.T) {
	bp := NewBranchPredictor(10)
	pc := uint64(0x400300)
	for i := 0; i < 100; i++ {
		bp.Predict(pc, true)
	}
	bp.Reset()
	// After reset, the first prediction for a taken branch is wrong
	// (counters re-initialized to weakly-not-taken).
	if bp.Predict(pc, true) {
		t.Error("prediction after Reset should be untrained")
	}
}

func TestPreloadCodeWarmsInstructionSide(t *testing.T) {
	c, err := NewCore(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, span := uint64(0x40_0000), 16<<10
	c.PreloadCode(base, span)
	// Every line of the region must now hit in L1I.
	for addr := base; addr < base+uint64(span); addr += 64 {
		if !c.l1i.Access(addr) {
			t.Fatalf("code line %#x cold after PreloadCode", addr)
		}
	}
	// Degenerate spans are no-ops.
	c.PreloadCode(base, 0)
	c.PreloadCode(base, -5)
}
