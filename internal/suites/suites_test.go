package suites

import (
	"math"
	"slices"
	"testing"

	"specchar/internal/dataset"
	"specchar/internal/pmu"
	"specchar/internal/trace"
	"specchar/internal/uarch"
)

// hasBenchmark reports whether the suite has a member of the given name.
func hasBenchmark(s *Suite, name string) bool {
	return slices.ContainsFunc(s.Benchmarks, func(b Benchmark) bool { return b.Name == name })
}

// tinyGen returns generation options small enough for unit tests.
func tinyGen() GenOptions {
	return GenOptions{
		SamplesPerBenchmark: 6,
		OpsPerWindow:        128,
		WarmupOps:           2000,
		Seed:                7,
		Multiplex:           true,
		Parallelism:         4,
	}
}

// tinySuite is a two-benchmark suite for fast pipeline tests.
func tinySuite() *Suite {
	return &Suite{
		Name: "tiny",
		Benchmarks: []Benchmark{
			{
				Name: "alpha", Weight: 1,
				Phases: []trace.Phase{computePhase(1, 0.3, 0.1, 0.1, 0.02, 0, 0)},
			},
			{
				Name: "beta", Weight: 2,
				Phases: []trace.Phase{
					tlbBoundPhase(0.5, 600, 0.15),
					computePhase(0.5, 0.3, 0.1, 0.1, 0, 0, 0.1),
				},
			},
		},
	}
}

func TestSuiteDefinitionsValid(t *testing.T) {
	cpu := CPU2006()
	if err := cpu.Validate(); err != nil {
		t.Errorf("CPU2006 invalid: %v", err)
	}
	if got := len(cpu.Benchmarks); got != 29 {
		t.Errorf("CPU2006 has %d benchmarks, want 29", got)
	}
	omp := OMP2001()
	if err := omp.Validate(); err != nil {
		t.Errorf("OMP2001 invalid: %v", err)
	}
	if got := len(omp.Benchmarks); got != 11 {
		t.Errorf("OMP2001 has %d benchmarks, want 11", got)
	}
	// The benchmarks the paper singles out must be present.
	for _, name := range []string{"429.mcf", "456.hmmer", "444.namd", "482.sphinx3",
		"470.lbm", "436.cactusADM", "471.omnetpp", "435.gromacs", "454.calculix", "447.dealII"} {
		if !hasBenchmark(cpu, name) {
			t.Errorf("CPU2006 missing %s", name)
		}
	}
	for _, name := range []string{"314.mgrid_m", "328.fma3d_m", "318.galgel_m",
		"332.ammp_m", "316.applu_m", "312.swim_m", "330.art_m", "310.wupwise_m"} {
		if !hasBenchmark(omp, name) {
			t.Errorf("OMP2001 missing %s", name)
		}
	}
}

func TestValidateRejectsBadDefinitions(t *testing.T) {
	cases := []struct {
		name  string
		suite Suite
	}{
		{"empty suite", Suite{Name: "x"}},
		{"unnamed benchmark", Suite{Name: "x", Benchmarks: []Benchmark{{Phases: []trace.Phase{{Weight: 1}}}}}},
		{"no phases", Suite{Name: "x", Benchmarks: []Benchmark{{Name: "b"}}}},
		{"invalid phase", Suite{Name: "x", Benchmarks: []Benchmark{{Name: "b", Phases: []trace.Phase{{Weight: 1, LoadFrac: 2}}}}}},
		{"zero weight phases", Suite{Name: "x", Benchmarks: []Benchmark{{Name: "b", Phases: []trace.Phase{{Weight: 0}}}}}},
		{"duplicate", Suite{Name: "x", Benchmarks: []Benchmark{
			{Name: "b", Phases: []trace.Phase{{Weight: 1}}},
			{Name: "b", Phases: []trace.Phase{{Weight: 1}}},
		}}},
	}
	for _, c := range cases {
		if err := c.suite.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	d, err := Generate(tinySuite(), tinyGen())
	if err != nil {
		t.Fatal(err)
	}
	// alpha weight 1 -> 6 samples; beta weight 2 -> 12 samples.
	if got := d.FilterLabel("alpha").Len(); got != 6 {
		t.Errorf("alpha samples = %d, want 6", got)
	}
	if got := d.FilterLabel("beta").Len(); got != 12 {
		t.Errorf("beta samples = %d, want 12", got)
	}
	if d.Schema.NumAttrs() != int(pmu.NumEvents) {
		t.Errorf("schema width = %d", d.Schema.NumAttrs())
	}
	for _, s := range d.Samples {
		if s.Y <= 0 {
			t.Fatalf("non-positive CPI %v", s.Y)
		}
		for j, v := range s.X {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("bad density %v for %s", v, d.Schema.Attributes[j])
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1, err := Generate(tinySuite(), tinyGen())
	if err != nil {
		t.Fatal(err)
	}
	// Different parallelism must not change results.
	opts := tinyGen()
	opts.Parallelism = 1
	d2, err := Generate(tinySuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Len() != d2.Len() {
		t.Fatalf("lengths differ: %d vs %d", d1.Len(), d2.Len())
	}
	for i := range d1.Samples {
		if d1.Samples[i].Y != d2.Samples[i].Y || d1.Samples[i].Label != d2.Samples[i].Label {
			t.Fatalf("sample %d differs across parallelism settings", i)
		}
		for j := range d1.Samples[i].X {
			if d1.Samples[i].X[j] != d2.Samples[i].X[j] {
				t.Fatalf("sample %d attr %d differs", i, j)
			}
		}
	}
	// Different seed changes the data.
	opts = tinyGen()
	opts.Seed = 8
	d3, _ := Generate(tinySuite(), opts)
	same := true
	for i := range d1.Samples {
		if d1.Samples[i].Y != d3.Samples[i].Y {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateBehaviouralContrast(t *testing.T) {
	// The TLB-bound benchmark must show DTLB misses; the compute one must
	// not; CPI ordering must follow.
	opts := tinyGen()
	opts.SamplesPerBenchmark = 12
	opts.OpsPerWindow = 512
	d, err := Generate(tinySuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(label, attr string) float64 {
		sub := d.FilterLabel(label)
		j := slices.Index(d.Schema.Attributes, attr)
		var sum float64
		for _, s := range sub.Samples {
			sum += s.X[j]
		}
		return sum / float64(sub.Len())
	}
	cpi := func(label string) float64 {
		sub := d.FilterLabel(label)
		sum, _ := sub.Summary()
		return sum.Mean
	}
	if alpha, beta := meanOf("alpha", "DtlbMiss"), meanOf("beta", "DtlbMiss"); beta <= alpha {
		t.Errorf("DtlbMiss: beta %v should exceed alpha %v", beta, alpha)
	}
	if a, b := cpi("alpha"), cpi("beta"); b <= a {
		t.Errorf("CPI: tlb-bound beta %v should exceed compute alpha %v", b, a)
	}
}

func TestGenerateMultiplexAblation(t *testing.T) {
	opts := tinyGen()
	opts.Multiplex = false
	ideal, err := Generate(tinySuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Multiplex = true
	muxed, err := Generate(tinySuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// CPI comes from the fixed counters either way: identical.
	for i := range ideal.Samples {
		if ideal.Samples[i].Y != muxed.Samples[i].Y {
			t.Fatalf("CPI differs under multiplexing at sample %d", i)
		}
	}
	// Event densities must differ somewhere (multiplexing noise).
	var differs bool
	for i := range ideal.Samples {
		for j := range ideal.Samples[i].X {
			if ideal.Samples[i].X[j] != muxed.Samples[i].X[j] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("multiplexing had no observable effect")
	}
}

func TestGenerateOptionValidation(t *testing.T) {
	if _, err := Generate(tinySuite(), GenOptions{OpsPerWindow: 128}); err == nil {
		t.Error("zero SamplesPerBenchmark should error")
	}
	if _, err := Generate(tinySuite(), GenOptions{SamplesPerBenchmark: 4}); err == nil {
		t.Error("zero OpsPerWindow should error")
	}
	bad := tinySuite()
	bad.Benchmarks[0].Phases[0].LoadFrac = 5
	if _, err := Generate(bad, tinyGen()); err == nil {
		t.Error("invalid suite should error")
	}
}

func TestGenerateCustomCoreConfig(t *testing.T) {
	// A tiny L1D should raise miss densities relative to the default.
	small := uarch.DefaultConfig()
	small.L1DSize = 4 << 10
	opts := tinyGen()
	opts.Config = &small
	dSmall, err := Generate(tinySuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Config = nil
	dBig, _ := Generate(tinySuite(), opts)
	j := slices.Index(dSmall.Schema.Attributes, "L1DMiss")
	var smallMiss, bigMiss float64
	for _, s := range dSmall.Samples {
		smallMiss += s.X[j]
	}
	for _, s := range dBig.Samples {
		bigMiss += s.X[j]
	}
	if smallMiss <= bigMiss {
		t.Errorf("4KB L1D misses (%v) not above 32KB L1D misses (%v)", smallMiss, bigMiss)
	}
}

func TestApportion(t *testing.T) {
	phases := []trace.Phase{{Weight: 1}, {Weight: 1}, {Weight: 2}}
	counts := apportion(10, phases)
	if counts[0]+counts[1]+counts[2] != 10 {
		t.Fatalf("apportion total = %v", counts)
	}
	if counts[2] != 5 {
		t.Errorf("weight-2 phase got %d of 10", counts[2])
	}
	// Remainders distribute without loss.
	counts = apportion(7, phases)
	if counts[0]+counts[1]+counts[2] != 7 {
		t.Fatalf("apportion total = %v", counts)
	}
	// Single phase takes everything.
	counts = apportion(3, phases[:1])
	if counts[0] != 3 {
		t.Errorf("single phase got %d", counts[0])
	}
}

func TestDefaultGenOptionsSane(t *testing.T) {
	opts := DefaultGenOptions()
	if opts.SamplesPerBenchmark <= 0 || opts.OpsPerWindow <= 0 || !opts.Multiplex {
		t.Errorf("DefaultGenOptions = %+v", opts)
	}
}

func TestPhaseArchetypesValid(t *testing.T) {
	archetypes := []trace.Phase{
		computePhase(1, 0.3, 0.1, 0.1, 0.05, 0.01, 0.1),
		tlbBoundPhase(1, 600, 0.1),
		memBoundPhase(1, 64, 0.3),
		streamPhase(1, 32, 0.3),
		simdPhase(1, 0.6, 0.1, 1024),
		branchyPhase(1, 0.5, 32),
		splitPhase(1),
		aliasPhase(1, 0.4, 0.8, 0.15),
		icachePhase(1, 128),
		ompBranchy(1, 0.4, 16),
	}
	for i, p := range archetypes {
		if err := p.Validate(); err != nil {
			t.Errorf("archetype %d (%s) invalid: %v", i, p.Name, err)
		}
	}
}

func TestGenerateContention(t *testing.T) {
	// A benchmark whose working set fits the shared L2 alone but not when
	// the sibling thread claims its half.
	suite := &Suite{
		Name: "contended",
		Benchmarks: []Benchmark{{
			Name: "l2-resident", Weight: 1,
			Phases: []trace.Phase{{
				Weight: 1, LoadFrac: 0.4,
				DataFootprint: 3 << 20,
				SeqFrac:       0.2,
				ILP:           1.5,
			}},
		}},
	}
	opts := tinyGen()
	opts.SamplesPerBenchmark = 10
	opts.OpsPerWindow = 1024
	solo, err := Generate(suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Contention = true
	contended, err := Generate(suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	soloSum, _ := solo.Summary()
	contSum, _ := contended.Summary()
	if contSum.Mean <= soloSum.Mean {
		t.Errorf("contended CPI %v not above solo CPI %v", contSum.Mean, soloSum.Mean)
	}
	j := slices.Index(solo.Schema.Attributes, "L2Miss")
	mean := func(d *dataset.Dataset) float64 {
		var s float64
		for _, smp := range d.Samples {
			s += smp.X[j]
		}
		return s / float64(d.Len())
	}
	if mean(contended) <= mean(solo) {
		t.Errorf("contended L2 miss density %v not above solo %v", mean(contended), mean(solo))
	}
}

func TestPhaseLabelsMatchGeneration(t *testing.T) {
	opts := tinyGen()
	s := tinySuite()
	d, err := Generate(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Benchmarks {
		b := &s.Benchmarks[i]
		labels := PhaseLabels(b, opts)
		if got := d.FilterLabel(b.Name).Len(); got != len(labels) {
			t.Errorf("%s: %d samples generated, %d labels", b.Name, got, len(labels))
		}
		// Labels are non-decreasing (phases emitted in order) and valid.
		for j := 1; j < len(labels); j++ {
			if labels[j] < labels[j-1] {
				t.Fatalf("%s: labels not monotone at %d", b.Name, j)
			}
			if labels[j] >= len(b.Phases) {
				t.Fatalf("%s: label %d out of range", b.Name, labels[j])
			}
		}
	}
}

func TestCPU2000SuiteValid(t *testing.T) {
	old := CPU2000()
	if err := old.Validate(); err != nil {
		t.Fatalf("CPU2000 invalid: %v", err)
	}
	if len(old.Benchmarks) != 14 {
		t.Errorf("CPU2000 has %d benchmarks, want 14", len(old.Benchmarks))
	}
	for _, name := range []string{"181.mcf", "164.gzip", "179.art", "300.twolf"} {
		if !hasBenchmark(old, name) {
			t.Errorf("CPU2000 missing %s", name)
		}
	}
}
