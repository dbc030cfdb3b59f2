// Customworkload: the paper's motivating use case for transferable models
// — characterize a NEW workload against an EXISTING suite model without
// retraining. We define a synthetic "in-memory database" benchmark from
// scratch (phase by phase), run it through the simulated processor and
// PMU, classify its intervals with the SPEC CPU2006 model tree, and check
// how well the CPU2006 model predicts its CPI.
package main

import (
	"context"
	"fmt"
	"log"

	"specchar"
	"specchar/internal/characterize"
	"specchar/internal/metrics"
	"specchar/internal/suites"
	"specchar/internal/trace"
)

func main() {
	log.SetFlags(0)

	// An existing model: the SPEC CPU2006 study.
	study, err := specchar.NewStudy(specchar.QuickConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A new workload the model has never seen: a synthetic in-memory
	// database — hash probes over a multi-GB heap (TLB- and
	// memory-hostile), a predictable scan phase, and a parsing phase with
	// branchy control flow.
	memdb := suites.Suite{
		Name: "memdb",
		Benchmarks: []suites.Benchmark{{
			Name: "memdb.probe", Weight: 1, Lang: "Go", Domain: "in-memory database",
			Phases: []trace.Phase{
				{
					Name: "hash-probe", Weight: 0.5,
					LoadFrac: 0.35, StoreFrac: 0.08, BranchFrac: 0.12,
					DataFootprint: 512 << 20, SeqFrac: 0.02, HotFrac: 0.9,
					CodeFootprint: 16 << 10, BranchEntropy: 0.3, ILP: 1.3,
				},
				{
					Name: "scan", Weight: 0.3,
					LoadFrac: 0.4, StoreFrac: 0.05, BranchFrac: 0.08,
					DataFootprint: 256 << 20, SeqFrac: 0.97, HotFrac: 0.9,
					AccessSize: 16, CodeFootprint: 8 << 10, ILP: 3,
				},
				{
					Name: "parse", Weight: 0.2,
					LoadFrac: 0.28, StoreFrac: 0.1, BranchFrac: 0.22,
					DataFootprint: 128 << 10, SeqFrac: 0.4, HotFrac: 0.9,
					CodeFootprint: 64 << 10, BranchEntropy: 0.45, ILP: 1.8,
				},
			},
		}},
	}

	gen := study.Config.Gen
	gen.SamplesPerBenchmark = 60
	data, err := suites.Generate(&memdb, gen)
	if err != nil {
		log.Fatal(err)
	}
	sum, _ := data.Summary()
	fmt.Printf("memdb: %d intervals, CPI mean %.2f sd %.2f\n\n", data.Len(), sum.Mean, sum.StdDev)

	// Classify the new workload through the CPU2006 tree (its compiled
	// flat-array form — the batch-scoring representation): which existing
	// behaviour classes does it exercise?
	profile, err := characterize.ProfileOf(study.CPUTreeCompiled, data, "memdb.probe")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("distribution over SPEC CPU2006 behaviour classes:")
	for i, share := range profile.Shares {
		if share < 0.02 {
			continue
		}
		leaf := study.CPUTree.Leaves()[i]
		fmt.Printf("  LM%-3d %5.1f%%  (class mean CPI %.2f)\n", i+1, 100*share, leaf.MeanY)
	}

	// Which existing benchmark is it most like?
	profiles, err := characterize.SuiteProfiles(study.CPUTreeCompiled, study.CPU)
	if err != nil {
		log.Fatal(err)
	}
	bestName, bestD := "", 2.0
	for _, p := range profiles[:len(profiles)-2] {
		if d := characterize.Distance(profile, p); d < bestD {
			bestName, bestD = p.Name, d
		}
	}
	fmt.Printf("\nnearest CPU2006 benchmark: %s (distance %.1f%%)\n", bestName, 100*bestD)

	// Does the CPU2006 model predict this workload's performance?
	preds, err := study.CPUTreeCompiled.PredictDatasetCheckedContext(context.Background(), data)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := metrics.Compute(preds, data.Ys())
	if err != nil {
		log.Fatal(err)
	}
	th := metrics.PaperThresholds()
	fmt.Printf("CPU2006 model accuracy on memdb: %s\n", rep)
	fmt.Printf("acceptable under the paper's thresholds (C>=%.2f, MAE<=%.2f): %v\n",
		th.MinCorrelation, th.MaxMAE, th.Acceptable(rep))

	// Where do memdb's cycles actually go? The simulator knows exactly.
	stack, cpi, err := suites.StackProfile(&memdb.Benchmarks[0], study.CoreConfig(), 60000, 20000, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact CPI stack (CPI %.2f): %s\n", cpi, stack.String())
}
