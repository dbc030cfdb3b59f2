package suites

import (
	"context"
	"fmt"

	"specchar/internal/dataset"
	"specchar/internal/faultinject"
	"specchar/internal/obs"
	"specchar/internal/pmu"
	"specchar/internal/robust"
	"specchar/internal/trace"
	"specchar/internal/uarch"
)

// Benchmark is one synthetic workload.
type Benchmark struct {
	Name   string
	Lang   string  // source language, informational (paper mentions it)
	Domain string  // application domain, informational
	Weight float64 // share of suite samples (proportional to instruction count)
	Phases []trace.Phase
}

// Validate checks the benchmark definition.
func (b *Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("suites: benchmark with empty name")
	}
	if len(b.Phases) == 0 {
		return fmt.Errorf("suites: benchmark %s has no phases", b.Name)
	}
	var w float64
	for i := range b.Phases {
		if err := b.Phases[i].Validate(); err != nil {
			return fmt.Errorf("suites: benchmark %s phase %d: %w", b.Name, i, err)
		}
		w += b.Phases[i].Weight
	}
	if w <= 0 {
		return fmt.Errorf("suites: benchmark %s has zero total phase weight", b.Name)
	}
	return nil
}

// Suite is a named list of benchmarks.
type Suite struct {
	Name       string
	Benchmarks []Benchmark
}

// Validate checks every member benchmark.
func (s *Suite) Validate() error {
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("suites: suite %s is empty", s.Name)
	}
	seen := make(map[string]bool)
	for i := range s.Benchmarks {
		b := &s.Benchmarks[i]
		if err := b.Validate(); err != nil {
			return err
		}
		if seen[b.Name] {
			return fmt.Errorf("suites: duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
	}
	return nil
}

// GenOptions configure dataset generation.
type GenOptions struct {
	// SamplesPerBenchmark is the number of measurement samples for a
	// benchmark of Weight 1 (scaled by each benchmark's Weight).
	SamplesPerBenchmark int

	// OpsPerWindow is the number of synthetic ops simulated per
	// multiplexing window; one sample spans Multiplexer.Windows() windows.
	OpsPerWindow int

	// WarmupOps is the number of ops run (per phase) before sampling
	// starts, amortizing cold-structure transients.
	WarmupOps int

	// Seed drives all randomness deterministically.
	Seed uint64

	// Multiplex enables the PMU multiplexing observation model; when
	// false, densities are ideal whole-sample values (ablation A4).
	Multiplex bool

	// Config is the simulated core; zero value means uarch.DefaultConfig.
	Config *uarch.Config

	// Contention simulates a sibling thread of the same phase running on
	// the second core of the dual-core package, contending for the shared
	// L2 (the paper's platform topology; relevant to the parallel
	// OMP2001 suite). The sibling's windows are executed but not
	// measured.
	Contention bool

	// Parallelism bounds the number of concurrently simulated
	// benchmarks; 0 means a sensible default.
	Parallelism int
}

// DefaultGenOptions returns the configuration used by the experiment
// harness: large enough for stable statistics, small enough to regenerate
// a suite in seconds.
func DefaultGenOptions() GenOptions {
	return GenOptions{
		SamplesPerBenchmark: 200,
		OpsPerWindow:        2048,
		WarmupOps:           30000,
		Seed:                20080419, // ISPASS 2008
		Multiplex:           true,
		Parallelism:         8,
	}
}

// Generate runs every benchmark of the suite through the simulated core
// and returns the resulting dataset, one labeled sample per measurement
// interval, in deterministic order.
func Generate(s *Suite, opts GenOptions) (*dataset.Dataset, error) {
	return GenerateContext(context.Background(), s, opts)
}

// GenerateContext is Generate with cooperative cancellation: benchmark
// workers stop at sample boundaries once the context is canceled and a
// wrapped ctx.Err() is returned; a panicking benchmark worker is contained
// (stack attached), cancels its siblings, and fails generation cleanly.
func GenerateContext(ctx context.Context, s *Suite, opts GenOptions) (*dataset.Dataset, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opts.SamplesPerBenchmark <= 0 {
		return nil, fmt.Errorf("suites: SamplesPerBenchmark must be positive")
	}
	if opts.OpsPerWindow <= 0 {
		return nil, fmt.Errorf("suites: OpsPerWindow must be positive")
	}
	cfg := uarch.DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	par := opts.Parallelism
	if par <= 0 {
		par = 8
	}
	rec := obs.FromContext(ctx)
	sctx, span := rec.StartSpan(ctx, "suites.generate",
		obs.A("suite", s.Name), obs.A("benchmarks", len(s.Benchmarks)), obs.A("workers", par))
	defer span.End()

	results := make([][]dataset.Sample, len(s.Benchmarks))
	g, gctx := robust.NewGroup(sctx, par)
	for i := range s.Benchmarks {
		i := i
		g.Go(func() error {
			faultinject.Sleep("suites.generate.bench")
			faultinject.CheckPanic("suites.generate.bench")
			if err := faultinject.Check("suites.generate.bench"); err != nil {
				return fmt.Errorf("suites: generating %s: %w", s.Benchmarks[i].Name, err)
			}
			// Seed derived from benchmark index, not scheduling order, so
			// parallel generation stays deterministic.
			seed := opts.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15)
			samples, err := generateBenchmark(gctx, &s.Benchmarks[i], cfg, opts, seed)
			if err != nil {
				return fmt.Errorf("suites: generating %s: %w", s.Benchmarks[i].Name, err)
			}
			results[i] = samples
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, fmt.Errorf("suites: generation: %w", err)
	}
	d := dataset.New(pmu.Schema())
	for _, samples := range results {
		for _, smp := range samples {
			if err := d.Append(smp); err != nil {
				return nil, err
			}
		}
	}
	span.SetRows(d.Len())
	rec.Counter("specchar_samples_generated_total").Add(int64(d.Len()))
	return d, nil
}

// generateBenchmark simulates one benchmark and returns its samples. It
// checks ctx at sample boundaries — one sample spans Windows() simulated
// multiplexing windows, the natural quantum of the simulation loop.
func generateBenchmark(ctx context.Context, b *Benchmark, cfg uarch.Config, opts GenOptions, seed uint64) ([]dataset.Sample, error) {
	rng := dataset.NewRNG(seed)
	var core, sibling *uarch.Core
	var err error
	if opts.Contention {
		core, sibling, err = uarch.NewCorePair(cfg)
	} else {
		core, err = uarch.NewCore(cfg)
	}
	if err != nil {
		return nil, err
	}
	mux := pmu.NewMultiplexer()
	mux.Enabled = opts.Multiplex
	windows := mux.Windows()

	weight := b.Weight
	if weight <= 0 {
		weight = 1
	}
	total := int(float64(opts.SamplesPerBenchmark)*weight + 0.5)
	if total < 1 {
		total = 1
	}
	counts := apportion(total, b.Phases)

	var out []dataset.Sample
	rotation := 0
	for pi := range b.Phases {
		if counts[pi] == 0 {
			continue
		}
		gen, err := trace.NewGenerator(b.Phases[pi], rng.Fork())
		if err != nil {
			return nil, err
		}
		var sibGen *trace.Generator
		if sibling != nil {
			if sibGen, err = trace.NewGeneratorSlot(b.Phases[pi], rng.Fork(), 1); err != nil {
				return nil, err
			}
		}
		// Bring the phase's working set (data and code) to steady-state
		// cache residency, then warm the predictor and TLBs on real
		// behaviour.
		core.Preload(gen.DataRegion())
		core.PreloadCode(gen.CodeRegion())
		if sibling != nil {
			sibling.Preload(sibGen.DataRegion())
			sibling.PreloadCode(sibGen.CodeRegion())
		}
		if opts.WarmupOps > 0 {
			core.Run(gen, opts.WarmupOps)
			if sibling != nil {
				sibling.Run(sibGen, opts.WarmupOps)
			}
		}
		winBuf := make([]pmu.Counts, windows)
		for s := 0; s < counts[pi]; s++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for w := 0; w < windows; w++ {
				if sibling != nil {
					// The sibling thread executes alongside; only this
					// core's counters are read.
					sibling.Run(sibGen, opts.OpsPerWindow)
				}
				winBuf[w] = core.Run(gen, opts.OpsPerWindow)
			}
			smp, err := mux.Sample(winBuf, rotation, b.Name)
			if err != nil {
				return nil, err
			}
			rotation++
			out = append(out, smp)
		}
	}
	return out, nil
}

// apportion distributes total samples over phases proportionally to their
// weights using the largest-remainder method, so counts always sum to
// total exactly.
func apportion(total int, phases []trace.Phase) []int {
	var sum float64
	for i := range phases {
		sum += phases[i].Weight
	}
	counts := make([]int, len(phases))
	rem := make([]float64, len(phases))
	assigned := 0
	for i := range phases {
		exact := float64(total) * phases[i].Weight / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < total {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		assigned++
	}
	return counts
}

// PhaseLabels returns the ground-truth phase index of each sample that
// Generate emits for the benchmark under the given options, in emission
// order. Samples are generated phase by phase (weights apportioned
// exactly as in generation), which makes the suite a labeled corpus for
// validating phase-detection algorithms (see internal/phasedet).
func PhaseLabels(b *Benchmark, opts GenOptions) []int {
	weight := b.Weight
	if weight <= 0 {
		weight = 1
	}
	total := int(float64(opts.SamplesPerBenchmark)*weight + 0.5)
	if total < 1 {
		total = 1
	}
	counts := apportion(total, b.Phases)
	var out []int
	for pi, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, pi)
		}
	}
	return out
}

// StackProfile runs the benchmark's phases (weighted) through the core
// and returns the exact cycle-attribution breakdown — the CPI stack the
// paper's regression models approximate from counter correlations. opsPerPhase
// sets the measured ops per phase (after preload and warm-up).
func StackProfile(b *Benchmark, cfg uarch.Config, opsPerPhase, warmup int, seed uint64) (uarch.CPIStack, float64, error) {
	var total uarch.CPIStack
	if err := b.Validate(); err != nil {
		return total, 0, err
	}
	rng := dataset.NewRNG(seed)
	core, err := uarch.NewCore(cfg)
	if err != nil {
		return total, 0, err
	}
	var weightSum float64
	for i := range b.Phases {
		weightSum += b.Phases[i].Weight
	}
	var instr float64
	for i := range b.Phases {
		gen, err := trace.NewGenerator(b.Phases[i], rng.Fork())
		if err != nil {
			return total, 0, err
		}
		core.Preload(gen.DataRegion())
		core.PreloadCode(gen.CodeRegion())
		if warmup > 0 {
			core.Run(gen, warmup)
		}
		_, stack := core.RunStack(gen, opsPerPhase)
		// Weight each phase's stack by its share of execution.
		w := b.Phases[i].Weight / weightSum
		stack.Scale(w)
		total.Add(stack)
		instr += w * float64(opsPerPhase)
	}
	cpi := total.Total() / instr
	return total, cpi, nil
}
