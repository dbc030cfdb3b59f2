package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"specchar/internal/dataset"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/pmu"
	"specchar/internal/suites"
	"specchar/internal/trace"
	"specchar/internal/uarch"
)

// benchSeedStride is the per-benchmark seed derivation suites.Generate
// uses: benchmark i of a suite runs from Seed ^ (i+1)*stride. Generating
// benchmark i alone as a one-member suite therefore reproduces its
// samples exactly when that suite's Seed is Seed ^ (i+1)*stride ^ stride.
const benchSeedStride = 0x9E3779B97F4A7C15

// probeBenchmarks generates every benchmark of both suites as its own
// one-member suite, GOMAXPROCS at a time so that each runs on its own
// CPU, and reports the per-benchmark wall times. The concatenated output
// must reproduce the suite datasets bit for bit.
func (r *run) probeBenchmarks(ctx context.Context, gen suites.GenOptions, data []*dataset.Dataset) error {
	var walls []float64
	var errs []error
	for si, name := range suiteNames {
		s := suiteByName(name)
		parts := make([]*dataset.Dataset, len(s.Benchmarks))
		benchWall := make([]float64, len(s.Benchmarks))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := range s.Benchmarks {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				one := &suites.Suite{Name: s.Name, Benchmarks: s.Benchmarks[i : i+1]}
				opts := gen
				opts.Seed = gen.Seed ^ uint64(i+1)*benchSeedStride ^ benchSeedStride
				opts.Parallelism = 1
				sctx, sp := span(ctx, "suites.bench", obs.A("benchmark", s.Benchmarks[i].Name))
				t0 := time.Now()
				d, err := suites.GenerateContext(sctx, one, opts)
				benchWall[i] = ms(time.Since(t0))
				sp.End()
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs = append(errs, err)
					return
				}
				parts[i] = d
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		walls = append(walls, benchWall...)
		whole, err := parts[0].Concat(parts[1:]...)
		if err != nil {
			return err
		}
		got, err := datasetDigest(whole)
		if err != nil {
			return err
		}
		want, err := datasetDigest(data[si])
		if err != nil {
			return err
		}
		if got != want {
			r.op(name+" per-benchmark generation", fmt.Errorf("concatenated per-benchmark datasets digest %s, suite %s", got, want))
		} else {
			r.op(name+" per-benchmark generation", nil)
		}
	}
	r.set("suites.bench_p50_ms", median(walls))
	r.set("suites.bench_max_ms", maxOf(walls))
	return nil
}

// probeSimulator times the simulator's layers serially, one call at a
// time, over every phase that generation at gen samples: the per-phase
// preload, core runs (warm-up plus one multiplexing rotation), PMU
// sampling, the trace generator on its own, and the cache and TLB on
// the data addresses the phases produce.
func (r *run) probeSimulator(gen suites.GenOptions) error {
	cfg := uarch.DefaultConfig()
	mux := pmu.NewMultiplexer()
	windows := make([]pmu.Counts, mux.Windows())
	const nextOps, addrsPerPhase, sampleReps = 20000, 4096, 64
	var preload, run, next, sample time.Duration
	var runOps, samples, phases int
	var addrs []uint64
	for _, name := range suiteNames {
		s := suiteByName(name)
		for bi := range s.Benchmarks {
			b := &s.Benchmarks[bi]
			active := map[int]bool{}
			for _, p := range suites.PhaseLabels(b, gen) {
				active[p] = true
			}
			for pi := range b.Phases {
				if !active[pi] {
					continue
				}
				seed := gen.Seed ^ uint64(bi*31+pi)
				core, err := uarch.NewCore(cfg)
				if err != nil {
					return err
				}
				g, err := trace.NewGenerator(b.Phases[pi], dataset.NewRNG(seed))
				if err != nil {
					return err
				}
				t0 := time.Now()
				core.Preload(g.DataRegion())
				core.PreloadCode(g.CodeRegion())
				preload += time.Since(t0)

				t0 = time.Now()
				core.Run(g, gen.WarmupOps)
				for w := range windows {
					windows[w] = core.Run(g, gen.OpsPerWindow)
				}
				run += time.Since(t0)
				runOps += gen.WarmupOps + len(windows)*gen.OpsPerWindow

				t0 = time.Now()
				for k := 0; k < sampleReps; k++ {
					if _, err := mux.Sample(windows, k, b.Name); err != nil {
						return err
					}
				}
				sample += time.Since(t0)
				samples += sampleReps

				side, err := trace.NewGenerator(b.Phases[pi], dataset.NewRNG(seed))
				if err != nil {
					return err
				}
				t0 = time.Now()
				for k := 0; k < nextOps; k++ {
					side.Next()
				}
				next += time.Since(t0)
				phases++
				for target := len(addrs) + addrsPerPhase; len(addrs) < target; {
					if op := side.Next(); op.Kind == trace.Load || op.Kind == trace.Store {
						addrs = append(addrs, op.Addr)
					}
				}
			}
		}
	}
	nextNS := float64(next.Nanoseconds()) / float64(phases*nextOps)
	runNS := float64(run.Nanoseconds()) / float64(runOps)
	r.set("trace.next_ns", nextNS)
	r.set("uarch.run_ns_per_op", runNS)
	r.set("uarch.self_ns_per_op", runNS-nextNS)
	r.set("uarch.preload_ms", ms(preload))
	r.set("pmu.sample_ns", float64(sample.Nanoseconds())/float64(samples))
	return r.probeCaches(cfg, addrs)
}

// probeCaches replays the phases' data addresses through the core's L1D
// and L2 geometries and its DTLB.
func (r *run) probeCaches(cfg uarch.Config, addrs []uint64) error {
	l1d, err := uarch.NewCache(cfg.L1DSize, cfg.L1DWays, cfg.LineBytes)
	if err != nil {
		return err
	}
	l2, err := uarch.NewCache(cfg.L2Size, cfg.L2Ways, cfg.LineBytes)
	if err != nil {
		return err
	}
	dtlb, err := uarch.NewTLB(cfg.DTLBEntries, cfg.DTLBWays, cfg.PageBytes)
	if err != nil {
		return err
	}
	const passes = 4
	hits := 0
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, a := range addrs {
			if l1d.Access(a) {
				hits++
			}
			if l2.Access(a) {
				hits++
			}
		}
	}
	cache := time.Since(t0)
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for _, a := range addrs {
			if dtlb.Access(a) {
				hits++
			}
		}
	}
	tlb := time.Since(t0)
	if hits == 0 {
		return errors.New("cache probe: no access hit")
	}
	n := float64(passes * len(addrs))
	r.set("uarch.cache_access_ns", float64(cache.Nanoseconds())/(2*n))
	r.set("uarch.tlb_access_ns", float64(tlb.Nanoseconds())/n)
	return nil
}

// probePredict times compiled scoring per sample at the two batch shapes
// the server flushes: the row path at MaxBatch (64) samples and the
// fused-columnar path at a bulk request's 512.
func (r *run) probePredict(tree *mtree.CompiledTree, d *dataset.Dataset) error {
	tree = tree.WithWorkers(1)
	const rowsN, colsN, budget = 64, bulkRows, 200 * time.Millisecond
	rows := &dataset.Dataset{Schema: d.Schema, Samples: d.Samples[:min(rowsN, d.Len())]}
	cols := d.Columns()
	n := min(colsN, d.Len())
	for a := range cols {
		cols[a] = cols[a][:n]
	}
	var rowsCalls, colsCalls int
	t0 := time.Now()
	for time.Since(t0) < budget {
		if _, err := tree.PredictDatasetChecked(rows); err != nil {
			return err
		}
		rowsCalls++
	}
	rowsT := time.Since(t0)
	t0 = time.Now()
	for time.Since(t0) < budget {
		if _, err := tree.PredictColumnsChecked(cols, n); err != nil {
			return err
		}
		colsCalls++
	}
	colsT := time.Since(t0)
	r.set("mtree.predict_rows_ns", float64(rowsT.Nanoseconds())/float64(rowsCalls*rows.Len()))
	r.set("mtree.predict_cols_ns", float64(colsT.Nanoseconds())/float64(colsCalls*n))
	return nil
}
