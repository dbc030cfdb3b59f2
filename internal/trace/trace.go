// Package trace generates synthetic instruction streams that stand in for
// the SPEC benchmark executions we cannot run (the paper's data came from
// proprietary benchmark binaries on real hardware).
//
// A workload phase is described by a Phase: an instruction mix, a memory
// footprint and locality profile, branch-predictability parameters, and
// store-aliasing behaviour. A Generator turns a Phase into a deterministic
// stream of Ops which internal/uarch executes against real cache, TLB,
// predictor, and store-buffer state machines to produce event counts.
package trace

import (
	"errors"
	"fmt"
	"math"

	"specchar/internal/dataset"
)

// OpKind classifies one micro-operation of the synthetic stream.
type OpKind uint8

// The op kinds produced by the generator. ALU covers every instruction
// that exercises no modeled structure.
const (
	ALU OpKind = iota
	Load
	Store
	Branch
	Mul
	Div
	SIMDOp
)

// String returns the op kind's name.
func (k OpKind) String() string {
	switch k {
	case ALU:
		return "alu"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case Mul:
		return "mul"
	case Div:
		return "div"
	case SIMDOp:
		return "simd"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one instruction of the synthetic stream.
type Op struct {
	Kind OpKind
	PC   uint64 // instruction address (drives the L1I cache)

	// Memory operations.
	Addr uint64 // virtual data address
	Size uint32 // access size in bytes

	// AliasDist is, for a load that targets a recently stored location,
	// the number of ops since that store (data-dependence distance);
	// -1 when the load is independent of recent stores.
	AliasDist int
	// PartialOverlap marks an aliasing load that overlaps the store
	// operand only partially (forwarding-hostile).
	PartialOverlap bool

	// Branches.
	Taken bool

	// FpAssist marks an op that triggers a floating-point assist
	// (denormal handling etc.).
	FpAssist bool
}

// Phase parameterizes a steady-state region of a workload's execution.
// Fields left zero are valid and mean "none of this behaviour".
type Phase struct {
	Name string

	// Weight is the share of the benchmark's execution spent in this
	// phase (normalized across the benchmark's phases by the caller).
	Weight float64

	// Instruction mix: the fraction of ops of each kind. The remainder
	// (1 - sum) is plain ALU work. Each must be >= 0 and they must sum to
	// at most 1.
	LoadFrac, StoreFrac, BranchFrac, MulFrac, DivFrac, SIMDFrac float64

	// FpAssistRate is the probability that a SIMD/FP op needs an assist.
	FpAssistRate float64

	// DataFootprint is the bytes of data the phase cycles through.
	DataFootprint int
	// SeqFrac is the fraction of memory accesses that walk sequentially;
	// the remainder jump within the footprint.
	SeqFrac float64
	// HotFrac is the fraction of non-sequential accesses that stay inside
	// a small hot region (HotBytes) instead of roaming the whole
	// footprint. Real workloads hit caches most of the time; HotFrac is
	// what makes misses a tail rather than the norm.
	HotFrac float64
	// HotBytes is the hot region size; 0 defaults to 16 KiB.
	HotBytes int
	// PageSpread optionally widens the virtual-page range of random
	// accesses beyond the footprint (distinct 4 KiB pages touched);
	// 0 derives it from DataFootprint. Large spreads defeat the DTLB.
	PageSpread int
	// AccessSize is the typical access width in bytes (8 scalar,
	// 16 SIMD); 0 defaults to 8.
	AccessSize int
	// MisalignRate is the probability a memory access is not naturally
	// aligned (may also split a cache line).
	MisalignRate float64

	// StoreAliasRate is the probability that a load targets a recently
	// stored location; PartialOverlapFrac is the fraction of those that
	// overlap the store operand only partially.
	StoreAliasRate     float64
	PartialOverlapFrac float64

	// CodeFootprint is the bytes of hot code (drives L1I misses).
	CodeFootprint int
	// BranchSites is the number of static branch sites; 0 defaults to 64.
	BranchSites int
	// BranchEntropy in [0, 1] sets how unpredictable branch outcomes are:
	// 0 gives fully biased (easily predicted) branches, 1 gives coin
	// flips.
	BranchEntropy float64

	// ILP is the phase's instruction-level-parallelism factor (>= 1):
	// the microarchitecture divides exposed stall penalties by it,
	// modeling overlap of misses with useful work. 0 defaults to 1.5.
	ILP float64
}

// Validate checks the phase for internally consistent parameters. Every
// float field must be finite: the range checks below are comparisons,
// which NaN passes, and the generator's draw thresholds assume a number.
func (p *Phase) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Weight", p.Weight},
		{"LoadFrac", p.LoadFrac}, {"StoreFrac", p.StoreFrac}, {"BranchFrac", p.BranchFrac},
		{"MulFrac", p.MulFrac}, {"DivFrac", p.DivFrac}, {"SIMDFrac", p.SIMDFrac},
		{"FpAssistRate", p.FpAssistRate}, {"SeqFrac", p.SeqFrac}, {"HotFrac", p.HotFrac},
		{"MisalignRate", p.MisalignRate}, {"StoreAliasRate", p.StoreAliasRate},
		{"PartialOverlapFrac", p.PartialOverlapFrac}, {"BranchEntropy", p.BranchEntropy},
		{"ILP", p.ILP},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("trace: %s is %v, not a finite number", f.name, f.v)
		}
	}
	mix := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.MulFrac + p.DivFrac + p.SIMDFrac
	switch {
	case p.LoadFrac < 0 || p.StoreFrac < 0 || p.BranchFrac < 0 ||
		p.MulFrac < 0 || p.DivFrac < 0 || p.SIMDFrac < 0:
		return errors.New("trace: negative instruction-mix fraction")
	case mix > 1+1e-9:
		return fmt.Errorf("trace: instruction mix sums to %.3f > 1", mix)
	case p.Weight < 0:
		return errors.New("trace: negative phase weight")
	case p.SeqFrac < 0 || p.SeqFrac > 1:
		return errors.New("trace: SeqFrac outside [0,1]")
	case p.HotFrac < 0 || p.HotFrac > 1:
		return errors.New("trace: HotFrac outside [0,1]")
	case p.HotBytes < 0:
		return errors.New("trace: negative HotBytes")
	case p.BranchEntropy < 0 || p.BranchEntropy > 1:
		return errors.New("trace: BranchEntropy outside [0,1]")
	case p.MisalignRate < 0 || p.MisalignRate > 1:
		return errors.New("trace: MisalignRate outside [0,1]")
	case p.StoreAliasRate < 0 || p.StoreAliasRate > 1:
		return errors.New("trace: StoreAliasRate outside [0,1]")
	case p.PartialOverlapFrac < 0 || p.PartialOverlapFrac > 1:
		return errors.New("trace: PartialOverlapFrac outside [0,1]")
	case p.DataFootprint < 0 || p.CodeFootprint < 0:
		return errors.New("trace: negative footprint")
	case p.PageSpread > math.MaxInt/pageSize:
		return fmt.Errorf("trace: PageSpread %d pages overflows the address span", p.PageSpread)
	case p.FpAssistRate < 0 || p.FpAssistRate > 1:
		return errors.New("trace: FpAssistRate outside [0,1]")
	case p.ILP < 0:
		return errors.New("trace: negative ILP")
	}
	return nil
}

const pageSize = 4096

// Generator produces the op stream of one phase.
type Generator struct {
	phase Phase
	// rng is the caller's generator. next loads its state into a local
	// once per op, threads that value through every draw of the op, and
	// stores it back once at the end: the same draws in the same order as
	// drawing through the pointer, without a load and store per draw.
	rng *dataset.RNG

	// mix holds the cumulative instruction-mix thresholds as
	// dataset.Chance draw thresholds: Load, then +Store, +Branch, +Mul,
	// +Div, +SIMD; a draw at or above the last is an ALU op.
	mix [6]uint64
	// The phase's per-event probabilities as dataset.Chance thresholds,
	// so every Bernoulli draw is one integer compare (RNG.Below).
	seq, hot, misalign, storeAlias, partialOverlap, fpAssist uint64

	// The per-op uniform draws' ranges, fixed at construction: the code
	// footprint (long jumps), HotBytes, the roaming span (PageSpread
	// pages, else DataFootprint) and the branch-site count.
	code, hotBytes, roam, sites divisor

	dataBase uint64 // base virtual address of the data region
	codeBase uint64
	seqAddr  uint64 // cursor of the sequential access stream
	seqEnd   uint64 // dataBase + DataFootprint, where seqAddr wraps
	pc       uint64 // cursor within the hot code region

	branchTaken []uint64 // per-site Chance threshold of "taken"
	branchPCs   []uint64

	recentStores ring // last stores for alias generation

	opCount int
}

// storeRec remembers a recent store for alias construction.
type storeRec struct {
	addr uint64
	size uint32
	op   int // op index at which the store was issued
}

// ring is a fixed-capacity ring of recent stores.
type ring struct {
	buf  [16]storeRec
	n    int
	next int
}

func (r *ring) push(s storeRec) {
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// aliasWindow bounds how far back an aliasing load reaches: loads
// overwhelmingly depend on the most recent stores (spilled temporaries,
// just-written struct fields), so pick draws uniformly from the last
// aliasWindow stores rather than the whole ring.
const aliasWindow = 8

// pick returns a recent store, biased to the most recent aliasWindow,
// and the advanced RNG state. An empty ring draws nothing. The draw is
// reduced as RNG.Intn(min(n, aliasWindow)) reduces it; once the ring
// holds aliasWindow stores (a power of two) that is a mask.
func (r *ring) pick(s dataset.RNG) (dataset.RNG, storeRec, bool) {
	if r.n == 0 {
		return s, storeRec{}, false
	}
	s, x := s.Next()
	if r.n >= aliasWindow {
		x &= aliasWindow - 1
	} else {
		x %= uint64(r.n)
	}
	idx := (r.next - 1 - int(x) + 2*len(r.buf)) % len(r.buf)
	return s, r.buf[idx], true
}

// divisor reduces a 64-bit draw to [0, n) exactly as RNG.Intn(n) does,
// x % n, with n fixed when the generator is built. For a power-of-two n
// the remainder is the low bits of x, so it is taken as x & (n-1).
type divisor struct {
	n    uint64
	mask uint64 // n-1 if n is a power of two above 1, else 0
}

// newDivisor returns the divisor for n. Every n the generator passes is
// positive once the phase's defaults are in, so this cannot panic; it
// checks that once here instead of on every draw, as Intn would.
func newDivisor(n int) divisor {
	if n <= 0 {
		panic(fmt.Sprintf("trace: draw range %d is not positive", n))
	}
	d := divisor{n: uint64(n)}
	if n&(n-1) == 0 {
		d.mask = d.n - 1
	}
	return d
}

// draw consumes one draw of s and returns the advanced state and the
// draw reduced to [0, n).
func (d divisor) draw(s dataset.RNG) (dataset.RNG, uint64) {
	s, x := s.Next()
	if d.mask != 0 {
		return s, x & d.mask
	}
	return s, x % d.n // n = 1 comes here too, and gives 0 either way
}

// below consumes one draw of s and reports, with the advanced state,
// whether it falls below the threshold t: RNG.Below on a value.
func below(s dataset.RNG, t uint64) (dataset.RNG, bool) {
	s, x := s.Next()
	return s, x>>11 < t
}

// NewGenerator builds a generator over the phase. The phase must be
// valid (see Validate); an invalid phase yields an error.
func NewGenerator(phase Phase, rng *dataset.RNG) (*Generator, error) {
	return NewGeneratorSlot(phase, rng, 0)
}

// NewGeneratorSlot is NewGenerator with the data region placed at a
// distinct virtual base per slot, so multiple simulated threads (OMP
// workers on a shared cache) operate on disjoint data slices as real
// parallel loops do.
func NewGeneratorSlot(phase Phase, rng *dataset.RNG, slot int) (*Generator, error) {
	if err := phase.Validate(); err != nil {
		return nil, err
	}
	if phase.AccessSize <= 0 {
		phase.AccessSize = 8
	}
	if phase.BranchSites <= 0 {
		phase.BranchSites = 64
	}
	if phase.ILP == 0 {
		phase.ILP = 1.5
	}
	if phase.DataFootprint <= 0 {
		phase.DataFootprint = 1 << 16
	}
	if phase.CodeFootprint <= 0 {
		phase.CodeFootprint = 1 << 13
	}
	if phase.HotBytes <= 0 {
		phase.HotBytes = 1 << 14
	}
	if phase.HotBytes > phase.DataFootprint {
		phase.HotBytes = phase.DataFootprint
	}
	roam := phase.DataFootprint
	if phase.PageSpread > 0 {
		roam = phase.PageSpread * pageSize
	}
	g := &Generator{
		phase:    phase,
		rng:      rng,
		code:     newDivisor(phase.CodeFootprint),
		hotBytes: newDivisor(phase.HotBytes),
		roam:     newDivisor(roam),
		sites:    newDivisor(phase.BranchSites),
		dataBase: 0x10_0000_0000 + uint64(slot)*0x40_0000_0000,
		codeBase: 0x40_0000, // code is shared between threads, as in OMP
	}
	g.seqEnd = g.dataBase + uint64(phase.DataFootprint)
	// Accumulated left to right, so each threshold is that of the float64
	// the prefix sum LoadFrac+StoreFrac+... evaluates to; every generated
	// dataset depends on these exact values.
	var cum float64
	for i, f := range [...]float64{phase.LoadFrac, phase.StoreFrac, phase.BranchFrac, phase.MulFrac, phase.DivFrac, phase.SIMDFrac} {
		cum += f
		g.mix[i] = dataset.Chance(cum)
	}
	g.seq = dataset.Chance(phase.SeqFrac)
	g.hot = dataset.Chance(phase.HotFrac)
	g.misalign = dataset.Chance(phase.MisalignRate)
	g.storeAlias = dataset.Chance(phase.StoreAliasRate)
	g.partialOverlap = dataset.Chance(phase.PartialOverlapFrac)
	g.fpAssist = dataset.Chance(phase.FpAssistRate)
	g.seqAddr = g.dataBase
	g.branchTaken = make([]uint64, phase.BranchSites)
	g.branchPCs = make([]uint64, phase.BranchSites)
	for i := range g.branchTaken {
		// Sites are individually biased; entropy interpolates each site's
		// bias toward 0.5 (a coin flip). As in real code, most sites are
		// strongly biased (loop back-edges, error checks) with a small
		// middling tail — an iid site at p=0.7 is unpredictable by any
		// predictor, so middling sites are kept rare.
		bias := siteBias(rng)
		g.branchTaken[i] = dataset.Chance(bias*(1-phase.BranchEntropy) + 0.5*phase.BranchEntropy)
		g.branchPCs[i] = g.codeBase + uint64(rng.Intn(phase.CodeFootprint))&^3
	}
	return g, nil
}

// siteBias draws a branch site's taken-probability: 45% strongly
// not-taken, 45% strongly taken, 10% middling.
func siteBias(rng *dataset.RNG) float64 {
	switch u := rng.Float64(); {
	case u < 0.45:
		return 0.01 + 0.07*rng.Float64()
	case u < 0.90:
		return 0.92 + 0.07*rng.Float64()
	default:
		return 0.30 + 0.40*rng.Float64()
	}
}

// Phase returns the generator's (defaulted) phase parameters.
func (g *Generator) Phase() Phase { return g.phase }

// CodeRegion returns the base virtual address and byte span of the
// phase's hot code region, for pre-warming the instruction side.
func (g *Generator) CodeRegion() (base uint64, span int) {
	return g.codeBase, g.phase.CodeFootprint
}

// DataRegion returns the base virtual address and byte span of the
// phase's data region (the wider of the footprint and the page spread),
// letting callers pre-warm caches to steady state before measuring.
func (g *Generator) DataRegion() (base uint64, span int) {
	span = g.phase.DataFootprint
	if g.phase.PageSpread > 0 && g.phase.PageSpread*pageSize > span {
		span = g.phase.PageSpread * pageSize
	}
	return g.dataBase, span
}

// Next produces the next op of the stream.
func (g *Generator) Next() (op Op) {
	g.next(&op)
	return op
}

// NextInto overwrites *op with the next op of the stream, the same op
// Next returns, for callers that reuse one Op across a loop instead of
// copying a fresh one out per call.
func (g *Generator) NextInto(op *Op) {
	*op = Op{}
	g.next(op)
}

// next fills the zero op with the next op of the stream. The RNG state
// is read once into s and written back once; every draw in between goes
// through s (see Generator.rng).
func (g *Generator) next(op *Op) {
	g.opCount++
	s, x := g.rng.Next()
	u := x >> 11 // the draw Float64 would scale by 2⁻⁵³
	s, op.PC = g.nextPC(s)
	op.AliasDist = -1
	switch {
	case u < g.mix[0]:
		s = g.genLoad(s, op)
	case u < g.mix[1]:
		s = g.genStore(s, op)
	case u < g.mix[2]:
		s = g.genBranch(s, op)
	case u < g.mix[3]:
		op.Kind = Mul
	case u < g.mix[4]:
		op.Kind = Div
	case u < g.mix[5]:
		op.Kind = SIMDOp
		s, op.FpAssist = below(s, g.fpAssist)
	default:
		op.Kind = ALU
	}
	*g.rng = s
}

// pcJump is the Chance threshold of nextPC's 2% long jump.
var pcJump = dataset.Chance(0.02)

// nextPC advances the instruction-address cursor through the hot code
// region, wrapping at the code footprint. Occasional long jumps model
// function calls across the region. The wrap subtracts the footprint
// instead of dividing: repeated subtraction gives (pc+4) % footprint for
// any footprint, including ones below 4 or not a multiple of 4, and
// since pc stays below the footprint the loop runs at most four times.
func (g *Generator) nextPC(s dataset.RNG) (dataset.RNG, uint64) {
	s, jump := below(s, pcJump)
	if jump {
		var x uint64
		s, x = g.code.draw(s)
		g.pc = x &^ 3
	} else {
		g.pc += 4
		for g.pc >= g.code.n {
			g.pc -= g.code.n
		}
	}
	return s, g.codeBase + g.pc
}

func (g *Generator) accessSize() uint32 {
	return uint32(g.phase.AccessSize)
}

// dataAddr produces the next data address according to the locality mix.
func (g *Generator) dataAddr(s dataset.RNG, size uint32) (dataset.RNG, uint64) {
	var addr, x uint64
	var ok bool
	if s, ok = below(s, g.seq); ok {
		g.seqAddr += uint64(size)
		if g.seqAddr >= g.seqEnd {
			g.seqAddr = g.dataBase
		}
		addr = g.seqAddr
	} else if s, ok = below(s, g.hot); ok {
		s, x = g.hotBytes.draw(s)
		addr = g.dataBase + x
	} else {
		s, x = g.roam.draw(s)
		addr = g.dataBase + x
	}
	// Natural alignment unless a misalignment is injected: an offset in
	// [1, size), the draw reduced as RNG.Intn(size-1) reduces it.
	addr &^= uint64(size) - 1
	if size > 1 {
		if s, ok = below(s, g.misalign); ok {
			s, x = s.Next()
			addr += 1 + x%(uint64(size)-1)
		}
	}
	return s, addr
}

func (g *Generator) genLoad(s dataset.RNG, op *Op) dataset.RNG {
	op.Kind = Load
	op.Size = g.accessSize()
	var ok bool
	if s, ok = below(s, g.storeAlias); ok {
		var st storeRec
		if s, st, ok = g.recentStores.pick(s); ok {
			op.Addr = st.addr
			op.Size = st.size
			op.AliasDist = g.opCount - st.op
			if s, ok = below(s, g.partialOverlap); ok {
				// Load a narrower slice at a non-zero offset inside the
				// stored bytes: partial overlap, hostile to forwarding.
				op.PartialOverlap = true
				if st.size > 4 {
					op.Addr = st.addr + 2
					op.Size = st.size / 2
				}
			}
			return s
		}
	}
	s, op.Addr = g.dataAddr(s, op.Size)
	return s
}

func (g *Generator) genStore(s dataset.RNG, op *Op) dataset.RNG {
	op.Kind = Store
	op.Size = g.accessSize()
	s, op.Addr = g.dataAddr(s, op.Size)
	g.recentStores.push(storeRec{addr: op.Addr, size: op.Size, op: g.opCount})
	return s
}

func (g *Generator) genBranch(s dataset.RNG, op *Op) dataset.RNG {
	s, site := g.sites.draw(s)
	op.Kind = Branch
	op.PC = g.branchPCs[site]
	s, op.Taken = below(s, g.branchTaken[site])
	return s
}
