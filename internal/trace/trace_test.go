package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"specchar/internal/dataset"
)

func basePhase() Phase {
	return Phase{
		Name:       "test",
		Weight:     1,
		LoadFrac:   0.3,
		StoreFrac:  0.1,
		BranchFrac: 0.15,
		MulFrac:    0.05,
		DivFrac:    0.01,
		SIMDFrac:   0.1,
	}
}

func TestPhaseValidate(t *testing.T) {
	good := basePhase()
	if err := good.Validate(); err != nil {
		t.Errorf("valid phase rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Phase)
	}{
		{"negative fraction", func(p *Phase) { p.LoadFrac = -0.1 }},
		{"mix over 1", func(p *Phase) { p.LoadFrac = 0.9; p.StoreFrac = 0.9 }},
		{"negative weight", func(p *Phase) { p.Weight = -1 }},
		{"bad seqfrac", func(p *Phase) { p.SeqFrac = 1.5 }},
		{"bad entropy", func(p *Phase) { p.BranchEntropy = -0.2 }},
		{"bad misalign", func(p *Phase) { p.MisalignRate = 2 }},
		{"bad alias", func(p *Phase) { p.StoreAliasRate = -1 }},
		{"bad overlap frac", func(p *Phase) { p.PartialOverlapFrac = 1.2 }},
		{"negative footprint", func(p *Phase) { p.DataFootprint = -5 }},
		{"bad fp assist", func(p *Phase) { p.FpAssistRate = 1.5 }},
		{"negative ILP", func(p *Phase) { p.ILP = -2 }},
		{"page spread overflows", func(p *Phase) { p.PageSpread = math.MaxInt/pageSize + 1 }},
	}
	for _, c := range cases {
		p := basePhase()
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestPhaseValidateRejectsNonFinite sets every float field of Phase, in
// turn, to NaN, +Inf and -Inf and requires Validate to reject the phase
// naming that field. NaN passes every range comparison, so without an
// explicit finiteness check it would validate.
func TestPhaseValidateRejectsNonFinite(t *testing.T) {
	typ := reflect.TypeOf(Phase{})
	fields := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		fields++
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := basePhase()
			reflect.ValueOf(&p).Elem().Field(i).SetFloat(v)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), f.Name) {
				t.Errorf("%s = %v: Validate returned %v, want an error naming the field", f.Name, v, err)
			}
		}
	}
	if fields != 15 {
		t.Fatalf("Phase has %d float fields, want 15; check the list in Validate", fields)
	}
}

// TestNextIntoMatchesNext requires NextInto, filling one reused Op, to
// produce the same stream as Next, so no field of a previous op survives.
func TestNextIntoMatchesNext(t *testing.T) {
	p := basePhase()
	p.FpAssistRate, p.MisalignRate = 0.2, 0.1
	p.StoreAliasRate, p.PartialOverlapFrac = 0.3, 0.5
	p.SeqFrac, p.HotFrac = 0.3, 0.5
	a, err := NewGenerator(p, dataset.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewGenerator(p, dataset.NewRNG(9))
	var op Op
	for i := 0; i < 50_000; i++ {
		want := a.Next()
		b.NextInto(&op)
		if op != want {
			t.Fatalf("op %d: NextInto %+v, Next %+v", i, op, want)
		}
	}
}

func TestNewGeneratorRejectsInvalid(t *testing.T) {
	p := basePhase()
	p.LoadFrac = 5
	if _, err := NewGenerator(p, dataset.NewRNG(1)); err == nil {
		t.Error("NewGenerator accepted invalid phase")
	}
}

func TestGeneratorDefaults(t *testing.T) {
	g, err := NewGenerator(Phase{Weight: 1}, dataset.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	p := g.Phase()
	if p.AccessSize != 8 || p.BranchSites != 64 || p.ILP != 1.5 ||
		p.DataFootprint == 0 || p.CodeFootprint == 0 {
		t.Errorf("defaults not applied: %+v", p)
	}
}

func TestMixFrequencies(t *testing.T) {
	g, err := NewGenerator(basePhase(), dataset.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	counts := make(map[OpKind]int)
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	check := func(kind OpKind, want float64) {
		got := float64(counts[kind]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%v frequency = %.4f, want ~%.3f", kind, got, want)
		}
	}
	check(Load, 0.3)
	check(Store, 0.1)
	check(Branch, 0.15)
	check(Mul, 0.05)
	check(Div, 0.01)
	check(SIMDOp, 0.1)
	check(ALU, 1-0.3-0.1-0.15-0.05-0.01-0.1)
}

func TestDeterminism(t *testing.T) {
	g1, _ := NewGenerator(basePhase(), dataset.NewRNG(42))
	g2, _ := NewGenerator(basePhase(), dataset.NewRNG(42))
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("streams diverged at op %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	p := basePhase()
	p.DataFootprint = 1 << 14
	p.SeqFrac = 0.5
	g, _ := NewGenerator(p, dataset.NewRNG(3))
	base := uint64(0x10_0000_0000)
	for i := 0; i < 50000; i++ {
		op := g.Next()
		if op.Kind != Load && op.Kind != Store {
			continue
		}
		if op.Addr < base || op.Addr > base+uint64(p.DataFootprint)+64 {
			t.Fatalf("address %#x outside footprint", op.Addr)
		}
		if op.Size == 0 {
			t.Fatal("memory op with zero size")
		}
	}
}

func TestPageSpreadWidensAddressRange(t *testing.T) {
	narrow := basePhase()
	narrow.DataFootprint = 1 << 14 // 4 pages
	wide := narrow
	wide.PageSpread = 4096 // 16M range of pages
	countPages := func(p Phase, seed uint64) int {
		g, _ := NewGenerator(p, dataset.NewRNG(seed))
		pages := make(map[uint64]bool)
		for i := 0; i < 20000; i++ {
			op := g.Next()
			if op.Kind == Load || op.Kind == Store {
				pages[op.Addr/4096] = true
			}
		}
		return len(pages)
	}
	n, w := countPages(narrow, 5), countPages(wide, 5)
	if w < n*10 {
		t.Errorf("PageSpread did not widen pages: narrow %d, wide %d", n, w)
	}
}

func TestMisalignmentRate(t *testing.T) {
	p := basePhase()
	p.MisalignRate = 0.2
	p.SeqFrac = 0
	g, _ := NewGenerator(p, dataset.NewRNG(11))
	var mem, misaligned int
	for i := 0; i < 100000; i++ {
		op := g.Next()
		if op.Kind != Load && op.Kind != Store {
			continue
		}
		if op.AliasDist >= 0 {
			continue // aliased loads inherit the store's address
		}
		mem++
		if op.Addr%uint64(op.Size) != 0 {
			misaligned++
		}
	}
	got := float64(misaligned) / float64(mem)
	if math.Abs(got-0.2) > 0.02 {
		t.Errorf("misalignment rate = %.4f, want ~0.2", got)
	}
}

func TestZeroMisalignMeansAligned(t *testing.T) {
	p := basePhase()
	p.MisalignRate = 0
	g, _ := NewGenerator(p, dataset.NewRNG(13))
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if (op.Kind == Load || op.Kind == Store) && op.AliasDist < 0 {
			if op.Addr%uint64(op.Size) != 0 {
				t.Fatalf("misaligned access %#x size %d with MisalignRate 0", op.Addr, op.Size)
			}
		}
	}
}

func TestStoreAliasing(t *testing.T) {
	p := basePhase()
	p.StoreAliasRate = 0.5
	p.PartialOverlapFrac = 0.4
	g, _ := NewGenerator(p, dataset.NewRNG(17))
	var loads, aliased, partial int
	for i := 0; i < 100000; i++ {
		op := g.Next()
		if op.Kind != Load {
			continue
		}
		loads++
		if op.AliasDist >= 0 {
			aliased++
			if op.AliasDist <= 0 {
				t.Fatalf("alias distance must be positive, got %d", op.AliasDist)
			}
			if op.PartialOverlap {
				partial++
			}
		}
	}
	aliasRate := float64(aliased) / float64(loads)
	if math.Abs(aliasRate-0.5) > 0.03 {
		t.Errorf("alias rate = %.4f, want ~0.5", aliasRate)
	}
	partialRate := float64(partial) / float64(aliased)
	if math.Abs(partialRate-0.4) > 0.05 {
		t.Errorf("partial overlap rate = %.4f, want ~0.4", partialRate)
	}
}

func TestNoAliasingWithoutStores(t *testing.T) {
	p := basePhase()
	p.StoreFrac = 0
	p.StoreAliasRate = 1 // requested but impossible: no stores to alias
	g, _ := NewGenerator(p, dataset.NewRNG(19))
	for i := 0; i < 10000; i++ {
		op := g.Next()
		if op.Kind == Load && op.AliasDist >= 0 {
			t.Fatal("aliased load produced with no stores in stream")
		}
	}
}

func TestBranchEntropyAffectsBias(t *testing.T) {
	measureBias := func(entropy float64) float64 {
		p := basePhase()
		p.BranchEntropy = entropy
		p.BranchSites = 8
		g, _ := NewGenerator(p, dataset.NewRNG(23))
		// Measure per-site taken rates and compute mean distance from 0.5.
		taken := make(map[uint64]int)
		total := make(map[uint64]int)
		for i := 0; i < 200000; i++ {
			op := g.Next()
			if op.Kind != Branch {
				continue
			}
			total[op.PC]++
			if op.Taken {
				taken[op.PC]++
			}
		}
		var dist float64
		var sites int
		for pc, n := range total {
			if n < 100 {
				continue
			}
			rate := float64(taken[pc]) / float64(n)
			dist += math.Abs(rate - 0.5)
			sites++
		}
		return dist / float64(sites)
	}
	biased := measureBias(0)
	random := measureBias(1)
	if biased < random+0.15 {
		t.Errorf("entropy 0 bias distance %.3f not clearly above entropy 1 distance %.3f", biased, random)
	}
	if random > 0.05 {
		t.Errorf("entropy 1 should give near-coin-flip branches, distance %.3f", random)
	}
}

func TestPCStaysInCodeFootprint(t *testing.T) {
	p := basePhase()
	p.CodeFootprint = 1 << 12
	g, _ := NewGenerator(p, dataset.NewRNG(29))
	codeBase := uint64(0x40_0000)
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.PC < codeBase || op.PC >= codeBase+uint64(p.CodeFootprint) {
			t.Fatalf("PC %#x outside code footprint", op.PC)
		}
	}
}

// nextPCModulo is nextPC as it was written with a modulo per op, kept
// as the reference for the subtracting wrap.
func (g *Generator) nextPCModulo() uint64 {
	if g.rng.Below(pcJump) {
		g.pc = uint64(g.rng.Intn(g.phase.CodeFootprint)) &^ 3
	} else {
		g.pc = (g.pc + 4) % uint64(g.phase.CodeFootprint)
	}
	return g.codeBase + g.pc
}

// The subtracting wrap of nextPC gives the modulo's PCs, long jumps
// included, on footprints below 4, not a multiple of 4, and the suites'.
func TestNextPCMatchesModulo(t *testing.T) {
	for _, fp := range []int{1, 3, 6, 4 << 10, 48 << 10} {
		p := basePhase()
		p.CodeFootprint = fp
		g, _ := NewGenerator(p, dataset.NewRNG(uint64(fp)))
		ref, _ := NewGenerator(p, dataset.NewRNG(uint64(fp)))
		jumps := 0
		for i := 0; i < 200000; i++ {
			prev := g.pc
			var got uint64
			*g.rng, got = g.nextPC(*g.rng)
			want := ref.nextPCModulo()
			if got != want {
				t.Fatalf("footprint %d, step %d from pc %d: nextPC %#x, modulo %#x", fp, i, prev, got, want)
			}
			if g.pc != (prev+4)%uint64(fp) {
				jumps++
			}
		}
		// On tiny footprints most jumps land where a step would.
		if fp >= 4<<10 && jumps < 1000 {
			t.Errorf("footprint %d: %d visible long jumps in 200000 steps, want ~4000", fp, jumps)
		}
	}
}

func TestFpAssistRate(t *testing.T) {
	p := basePhase()
	p.SIMDFrac = 0.5
	p.LoadFrac, p.StoreFrac, p.BranchFrac, p.MulFrac, p.DivFrac = 0, 0, 0, 0, 0
	p.FpAssistRate = 0.1
	g, _ := NewGenerator(p, dataset.NewRNG(31))
	var simd, assists int
	for i := 0; i < 100000; i++ {
		op := g.Next()
		if op.Kind == SIMDOp {
			simd++
			if op.FpAssist {
				assists++
			}
		}
	}
	got := float64(assists) / float64(simd)
	if math.Abs(got-0.1) > 0.01 {
		t.Errorf("fp assist rate = %.4f, want ~0.1", got)
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{ALU: "alu", Load: "load", Store: "store",
		Branch: "branch", Mul: "mul", Div: "div", SIMDOp: "simd"} {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", k, k.String(), want)
		}
	}
	if OpKind(99).String() == "" {
		t.Error("unknown kind should render something")
	}
}
