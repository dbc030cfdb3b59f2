package trace

import (
	"fmt"
	"testing"

	"specchar/internal/dataset"
)

// refGenerator is the per-op path as it was written with every draw
// through the *dataset.RNG: the ranges go to Intn on the phase's fields
// on every op, Bernoulli draws to Below, and the ring pick to Intn. It
// shares nothing with Generator's per-op code, so running the two in
// lockstep pins the stream of the register-threaded path, op by op and
// draw by draw. It also counts which paths the stream took.
type refGenerator struct {
	g   Generator // construction-time state only; g.rng is unused
	rng *dataset.RNG
	cov coverage
}

// coverage counts, by path name, the paths of the stream a lockstep run
// took.
type coverage map[string]int

// newRefGenerator copies g's construction-time state (thresholds, sites,
// bases) and its RNG state, so the reference continues the same stream
// from the same point with its own RNG.
func newRefGenerator(g *Generator, cov coverage) *refGenerator {
	r := *g.rng
	ref := &refGenerator{g: *g, rng: &r, cov: cov}
	ref.g.rng = nil
	return ref
}

func (ref *refGenerator) next(op *Op) {
	g := &ref.g
	g.opCount++
	u := ref.rng.Uint64() >> 11
	op.PC = ref.nextPC()
	op.AliasDist = -1
	switch {
	case u < g.mix[0]:
		ref.genLoad(op)
	case u < g.mix[1]:
		ref.genStore(op)
	case u < g.mix[2]:
		ref.genBranch(op)
	case u < g.mix[3]:
		op.Kind = Mul
	case u < g.mix[4]:
		op.Kind = Div
	case u < g.mix[5]:
		op.Kind = SIMDOp
		op.FpAssist = ref.rng.Below(g.fpAssist)
		if op.FpAssist {
			ref.cov["FP assists"]++
		}
	default:
		op.Kind = ALU
	}
	ref.cov[op.Kind.String()+" ops"]++
}

func (ref *refGenerator) nextPC() uint64 {
	g := &ref.g
	if ref.rng.Below(pcJump) {
		g.pc = uint64(ref.rng.Intn(g.phase.CodeFootprint)) &^ 3
		ref.cov["long PC jumps"]++
	} else {
		g.pc = (g.pc + 4) % uint64(g.phase.CodeFootprint)
	}
	return g.codeBase + g.pc
}

func (ref *refGenerator) dataAddr(size uint32) uint64 {
	g := &ref.g
	p := &g.phase
	var addr uint64
	switch {
	case ref.rng.Below(g.seq):
		g.seqAddr += uint64(size)
		if g.seqAddr >= g.dataBase+uint64(p.DataFootprint) {
			g.seqAddr = g.dataBase
			ref.cov["sequential wraps"]++
		}
		addr = g.seqAddr
	case ref.rng.Below(g.hot):
		addr = g.dataBase + uint64(ref.rng.Intn(p.HotBytes))
		ref.cov["hot accesses"]++
	default:
		span := p.DataFootprint
		if p.PageSpread > 0 {
			span = p.PageSpread * pageSize
		}
		addr = g.dataBase + uint64(ref.rng.Intn(span))
		ref.cov["roaming accesses"]++
	}
	addr &^= uint64(size) - 1
	if size > 1 && ref.rng.Below(g.misalign) {
		addr += uint64(1 + ref.rng.Intn(int(size)-1))
		ref.cov["misaligned accesses"]++
	}
	return addr
}

// pick is ring.pick as it was written, through Intn.
func (ref *refGenerator) pick() (storeRec, bool) {
	r := &ref.g.recentStores
	switch {
	case r.n == 0:
		ref.cov["alias draws on an empty ring"]++
	case r.n < aliasWindow:
		ref.cov["picks from a partly filled ring"]++
	case r.n < len(r.buf):
		ref.cov["picks from a full window"]++
	default:
		ref.cov["picks from a full ring"]++
	}
	if r.n == 0 {
		return storeRec{}, false
	}
	span := r.n
	if span > aliasWindow {
		span = aliasWindow
	}
	idx := (r.next - 1 - ref.rng.Intn(span) + 2*len(r.buf)) % len(r.buf)
	return r.buf[idx], true
}

func (ref *refGenerator) genLoad(op *Op) {
	g := &ref.g
	op.Kind = Load
	op.Size = g.accessSize()
	if ref.rng.Below(g.storeAlias) {
		if st, ok := ref.pick(); ok {
			op.Addr = st.addr
			op.Size = st.size
			op.AliasDist = g.opCount - st.op
			if ref.rng.Below(g.partialOverlap) {
				op.PartialOverlap = true
				if st.size > 4 {
					op.Addr = st.addr + 2
					op.Size = st.size / 2
					ref.cov["split partial overlaps"]++
				} else {
					ref.cov["partial overlaps of size <= 4"]++
				}
			}
			return
		}
	}
	op.Addr = ref.dataAddr(op.Size)
}

func (ref *refGenerator) genStore(op *Op) {
	g := &ref.g
	op.Kind = Store
	op.Size = g.accessSize()
	op.Addr = ref.dataAddr(op.Size)
	g.recentStores.push(storeRec{addr: op.Addr, size: op.Size, op: g.opCount})
}

func (ref *refGenerator) genBranch(op *Op) {
	g := &ref.g
	site := ref.rng.Intn(len(g.branchTaken))
	op.Kind = Branch
	op.PC = g.branchPCs[site]
	op.Taken = ref.rng.Below(g.branchTaken[site])
}

// runLockstep builds the phase's generator from seed, steps it and the
// reference n ops, and fails on the first op whose fields or following
// RNG state differ. It returns false if the phase is invalid.
func runLockstep(t *testing.T, name string, p Phase, seed uint64, n int, cov coverage) bool {
	t.Helper()
	rng := dataset.NewRNG(seed)
	g, err := NewGenerator(p, rng)
	if err != nil {
		return false
	}
	ref := newRefGenerator(g, cov)
	for i := 0; i < n; i++ {
		var want Op
		ref.next(&want)
		got := g.Next()
		if got != want {
			t.Fatalf("%s: op %d is %+v, reference %+v", name, i, got, want)
		}
		if *rng != *ref.rng {
			t.Fatalf("%s: RNG state after op %d differs from the reference", name, i)
		}
	}
	return true
}

// lockstepPhase is a phase that takes every path of the generator: all
// op kinds, sequential (wrapping), hot and roaming addresses,
// misalignment, store aliasing with partial overlap, and FP assists.
func lockstepPhase() Phase {
	return Phase{
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.14, MulFrac: 0.03, DivFrac: 0.01, SIMDFrac: 0.1,
		FpAssistRate:  0.2,
		DataFootprint: 8 << 10, SeqFrac: 0.4, HotFrac: 0.5,
		MisalignRate: 0.1, StoreAliasRate: 0.3, PartialOverlapFrac: 0.5,
		CodeFootprint: 16 << 10, BranchEntropy: 0.3,
	}
}

// TestGeneratorLockstep runs the generator against refGenerator over
// phases chosen to meet every range both as a mask (a power of two) and
// as a modulo, then checks that the runs exercised every path.
func TestGeneratorLockstep(t *testing.T) {
	type tc struct {
		name string
		edit func(*Phase)
	}
	cases := []tc{{"all-paths", func(*Phase) {}}}
	for _, fp := range []int{1, 3, 6, 48 << 10} {
		cases = append(cases, tc{fmt.Sprint("code/", fp), func(p *Phase) { p.CodeFootprint = fp }})
	}
	cases = append(cases,
		tc{"spread/300", func(p *Phase) { p.PageSpread = 300; p.HotFrac = 0.1 }},
		tc{"spread/3000", func(p *Phase) { p.PageSpread = 3000; p.HotFrac = 0.1 }},
		tc{"spread/4096", func(p *Phase) { p.PageSpread = 4096; p.HotFrac = 0.1 }},
		tc{"footprint/24MiB", func(p *Phase) { p.DataFootprint = 24 << 20; p.HotFrac = 0.1 }},
		tc{"hot-above-footprint", func(p *Phase) { p.DataFootprint = 24 << 10; p.HotBytes = 1 << 20; p.HotFrac = 0.9 }},
		tc{"hot/3000", func(p *Phase) { p.HotBytes = 3000; p.HotFrac = 0.9 }},
		tc{"access/1", func(p *Phase) { p.AccessSize = 1 }},
		tc{"access/4", func(p *Phase) { p.AccessSize = 4 }},
		tc{"access/16", func(p *Phase) { p.AccessSize = 16 }},
		tc{"access/12", func(p *Phase) { p.AccessSize = 12 }},
		tc{"sites/3", func(p *Phase) { p.BranchSites = 3 }},
		tc{"sites/1", func(p *Phase) { p.BranchSites = 1 }},
		// Loads that draw an alias with no store ever issued, and with a
		// ring that fills slowly through its partial span.
		tc{"no-stores", func(p *Phase) { p.StoreFrac = 0 }},
		tc{"rare-stores", func(p *Phase) { p.StoreFrac = 0.002; p.LoadFrac = 0.5; p.StoreAliasRate = 0.9 }},
	)
	total := coverage{}
	for i, c := range cases {
		p := lockstepPhase()
		c.edit(&p)
		cov := coverage{}
		if !runLockstep(t, c.name, p, uint64(i+1), 50000, cov) {
			t.Fatalf("%s: phase rejected", c.name)
		}
		switch c.name {
		case "access/1":
			if n := cov["misaligned accesses"]; n != 0 {
				t.Errorf("access/1: %d misaligned accesses, want none (no misalign draw)", n)
			}
		case "access/4":
			if cov["partial overlaps of size <= 4"] == 0 {
				t.Error("access/4: no partial overlap of size <= 4")
			}
		case "no-stores":
			if cov["alias draws on an empty ring"] == 0 || cov["picks from a partly filled ring"] != 0 {
				t.Errorf("no-stores: alias draws %v, want some on an empty ring and no picks", cov)
			}
		case "rare-stores":
			if n := cov["picks from a partly filled ring"]; n < 100 {
				t.Errorf("rare-stores: %d alias picks from a partly filled ring, want many", n)
			}
		}
		for path, n := range cov {
			total[path] += n
		}
	}
	for k := ALU; k <= SIMDOp; k++ {
		if total[k.String()+" ops"] == 0 {
			t.Errorf("no %v op in any case", k)
		}
	}
	for _, path := range []string{
		"alias draws on an empty ring", "picks from a partly filled ring",
		"picks from a full window", "picks from a full ring",
		"partial overlaps of size <= 4", "split partial overlaps",
		"FP assists", "misaligned accesses", "long PC jumps", "sequential wraps",
		"hot accesses", "roaming accesses",
	} {
		if total[path] == 0 {
			t.Errorf("lockstep runs took no %s", path)
		}
	}
}

// FuzzGeneratorLockstep runs the generator against refGenerator on
// phases built from arbitrary fractions (as 16-bit fixed point, the mix
// scaled down to sum to at most 1) and footprints, from arbitrary seeds.
func FuzzGeneratorLockstep(f *testing.F) {
	f.Add(uint64(1), uint16(20000), uint16(6500), uint16(9000), uint16(2000), uint16(700), uint16(6500),
		uint16(13000), uint16(26000), uint16(30000), uint16(6500), uint16(20000), uint16(33000),
		uint32(8<<10), uint32(16<<10), uint32(0), uint16(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint16(65535), uint16(65535), uint16(0), uint16(0), uint16(0), uint16(0),
		uint16(0), uint16(65535), uint16(0), uint16(65535), uint16(65535), uint16(65535),
		uint32(24<<20), uint32(3), uint32(1<<20), uint16(300), uint8(16), uint8(3))
	f.Add(uint64(42), uint16(30000), uint16(100), uint16(10000), uint16(0), uint16(0), uint16(20000),
		uint16(65535), uint16(0), uint16(65535), uint16(100), uint16(60000), uint16(65535),
		uint32(1), uint32(1), uint32(1), uint16(3000), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, load, store, branch, mul, div, simd,
		fpAssist, seq, hot, misalign, alias, partial uint16,
		dataFP, codeFP, hotBytes uint32, spread uint16, access, sites uint8) {
		frac := func(v uint16) float64 { return float64(v) / 65535 }
		mix := []float64{frac(load), frac(store), frac(branch), frac(mul), frac(div), frac(simd)}
		var sum float64
		for _, m := range mix {
			sum += m
		}
		if sum > 1 {
			for i := range mix {
				mix[i] /= sum
			}
		}
		p := Phase{
			LoadFrac: mix[0], StoreFrac: mix[1], BranchFrac: mix[2], MulFrac: mix[3], DivFrac: mix[4], SIMDFrac: mix[5],
			FpAssistRate: frac(fpAssist), SeqFrac: frac(seq), HotFrac: frac(hot),
			MisalignRate: frac(misalign), StoreAliasRate: frac(alias), PartialOverlapFrac: frac(partial),
			DataFootprint: int(dataFP % (64 << 20)), CodeFootprint: int(codeFP % (1 << 20)),
			HotBytes: int(hotBytes % (4 << 20)), PageSpread: int(spread % 8192),
			AccessSize: int(access % 33), BranchSites: int(sites),
			BranchEntropy: frac(partial),
		}
		runLockstep(t, "fuzz", p, seed, 4096, coverage{})
	})
}
