package specchar

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md's per-experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports, alongside the usual time/op, the headline
// scalar of its experiment via b.ReportMetric (leaf counts, correlation
// coefficients, MAE, t statistics), so a bench run doubles as a compact
// results table.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"specchar/internal/characterize"
	"specchar/internal/dataset"
	"specchar/internal/metrics"
	"specchar/internal/mtree"
	"specchar/internal/suites"
)

var (
	benchOnce sync.Once
	benchS    *Study
	benchErr  error
)

func benchStudy(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchS, benchErr = NewStudy(DefaultConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchS
}

// BenchmarkTable1EventCatalog regenerates Table I.
func BenchmarkTable1EventCatalog(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Table1()
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkFigure1CPU2006Tree regenerates Figure 1: the SPEC CPU2006
// model tree is induced from scratch on the suite data each iteration.
func BenchmarkFigure1CPU2006Tree(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	var tree *mtree.Tree
	for i := 0; i < b.N; i++ {
		var err error
		tree, err = mtree.Build(s.CPU, s.Config.Tree)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tree.NumLeaves()), "leaves")
	b.ReportMetric(float64(tree.Depth()), "depth")
}

// BenchmarkFigure2OMP2001Tree regenerates Figure 2.
func BenchmarkFigure2OMP2001Tree(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	var tree *mtree.Tree
	for i := 0; i < b.N; i++ {
		var err error
		tree, err = mtree.Build(s.OMP, s.Config.Tree)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tree.NumLeaves()), "leaves")
}

// BenchmarkTable2CPU2006Distribution regenerates Table II: classification
// of all CPU2006 samples into leaf models, per benchmark.
func BenchmarkTable2CPU2006Distribution(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	var profiles []characterize.Profile
	for i := 0; i < b.N; i++ {
		var err error
		profiles, err = characterize.SuiteProfiles(s.CPUTreeCompiled, s.CPU)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: share of the biggest leaf population in the Suite row
	// (the paper's LM1 carries 45.28%).
	suiteRow := profiles[len(profiles)-2]
	b.ReportMetric(100*slices.Max(suiteRow.Shares), "top-LM-%")
}

// BenchmarkTable3Similarity regenerates Table III: the full pairwise
// similarity matrix over CPU2006 benchmarks.
func BenchmarkTable3Similarity(b *testing.B) {
	s := benchStudy(b)
	profiles, err := characterize.SuiteProfiles(s.CPUTreeCompiled, s.CPU)
	if err != nil {
		b.Fatal(err)
	}
	bench := profiles[:len(profiles)-2]
	b.ResetTimer()
	var m *characterize.SimilarityMatrix
	for i := 0; i < b.N; i++ {
		m = characterize.Similarity(bench)
	}
	b.ReportMetric(100*m.ClosestPairs(1)[0].Distance, "closest-%")
	b.ReportMetric(100*m.FarthestPairs(1)[0].Distance, "farthest-%")
}

// BenchmarkTable4OMPDistribution regenerates Table IV.
func BenchmarkTable4OMPDistribution(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := characterize.SuiteProfiles(s.OMPTreeCompiled, s.OMP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransferCPUSelf regenerates Section VI-A2a: the CPU2006 10%
// model assessed on held-out CPU2006 data (t statistics near zero,
// H0 retained).
func BenchmarkTransferCPUSelf(b *testing.B) {
	benchTransfer(b, "cpu->cpu")
}

// BenchmarkTransferCPUToOMP regenerates Section VI-A2b: the CPU2006 model
// on OMP2001 data (t statistics far beyond 1.96, H0 rejected).
func BenchmarkTransferCPUToOMP(b *testing.B) {
	benchTransfer(b, "cpu->omp")
}

// BenchmarkTransferReverse regenerates the reverse direction of Section
// VI's last paragraph (OMP2001 model on CPU2006).
func BenchmarkTransferReverse(b *testing.B) {
	benchTransfer(b, "omp->cpu")
}

func benchTransfer(b *testing.B, dir string) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := s.AssessTransfer(dir)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(math.Abs(a.SampleTest.Statistic), "|t|")
			b.ReportMetric(a.Metrics.Correlation, "C")
			b.ReportMetric(a.Metrics.MAE, "MAE")
		}
	}
}

// BenchmarkAccuracyMetrics regenerates Section VI-B2: both accuracy
// pairings of the CPU2006 model (self C~0.92/MAE~0.10 acceptable; cross
// C~0.43/MAE~0.37 rejected in the paper).
func BenchmarkAccuracyMetrics(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		self, err := s.AssessTransfer("cpu->cpu")
		if err != nil {
			b.Fatal(err)
		}
		cross, err := s.AssessTransfer("cpu->omp")
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(self.Metrics.Correlation, "C-self")
			b.ReportMetric(cross.Metrics.Correlation, "C-cross")
			b.ReportMetric(self.Metrics.MAE, "MAE-self")
			b.ReportMetric(cross.Metrics.MAE, "MAE-cross")
		}
	}
}

// BenchmarkAblationSmoothing (A1) measures the accuracy effect of M5
// smoothing on the CPU2006 self-transfer task.
func BenchmarkAblationSmoothing(b *testing.B) {
	s := benchStudy(b)
	for _, smooth := range []bool{true, false} {
		name := "on"
		if !smooth {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			opts := s.Config.Tree
			opts.Smooth = smooth
			for i := 0; i < b.N; i++ {
				tree, err := mtree.Build(s.CPUTrain, opts)
				if err != nil {
					b.Fatal(err)
				}
				rep := evalOn(b, tree, s)
				if i == b.N-1 {
					b.ReportMetric(rep.mae, "MAE")
					b.ReportMetric(rep.c, "C")
				}
			}
		})
	}
}

// BenchmarkAblationPruning (A2) sweeps the pruning factor: tree size vs
// accuracy.
func BenchmarkAblationPruning(b *testing.B) {
	s := benchStudy(b)
	for _, pf := range []struct {
		name   string
		factor float64
		prune  bool
	}{
		{"none", 1, false},
		{"factor-1.0", 1.0, true},
		{"factor-1.5", 1.5, true},
		{"factor-2.5", 2.5, true},
	} {
		b.Run(pf.name, func(b *testing.B) {
			opts := s.Config.Tree
			opts.Prune = pf.prune
			opts.PruningFactor = pf.factor
			var leaves int
			for i := 0; i < b.N; i++ {
				tree, err := mtree.Build(s.CPUTrain, opts)
				if err != nil {
					b.Fatal(err)
				}
				leaves = tree.NumLeaves()
				if i == b.N-1 {
					rep := evalOn(b, tree, s)
					b.ReportMetric(rep.mae, "MAE")
				}
			}
			b.ReportMetric(float64(leaves), "leaves")
		})
	}
}

// BenchmarkAblationTrainFraction (A3) regenerates the training-fraction
// sweep behind the paper's "10% suffices" claim.
func BenchmarkAblationTrainFraction(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := s.SweepReport(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(report) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkAblationMultiplexing (A4) compares data generated with the PMU
// multiplexing observation model against ideal whole-sample observation,
// reporting the accuracy cost of multiplexing noise on a self-transfer
// task. Uses a reduced scale since it regenerates the suite twice.
func BenchmarkAblationMultiplexing(b *testing.B) {
	for _, mux := range []bool{true, false} {
		name := "mux-on"
		if !mux {
			name = "mux-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen := suites.DefaultGenOptions()
				gen.SamplesPerBenchmark = 60
				gen.Multiplex = mux
				d, err := suites.Generate(suites.CPU2006(), gen)
				if err != nil {
					b.Fatal(err)
				}
				cfg := DefaultConfig()
				train, test := d.StratifiedSplit(newSplitRNG(), 0.1)
				tree, err := mtree.Build(train, cfg.Tree)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := computeMetrics(tree, test)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(rep.mae, "MAE")
					b.ReportMetric(rep.c, "C")
				}
			}
		})
	}
}

// BenchmarkDataGeneration measures the synthetic-suite pipeline itself
// (trace generation + microarchitecture simulation + PMU observation) at
// reduced scale.
func BenchmarkDataGeneration(b *testing.B) {
	gen := suites.DefaultGenOptions()
	gen.SamplesPerBenchmark = 10
	gen.WarmupOps = 5000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := suites.Generate(suites.CPU2006(), gen)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.Len()), "samples")
	}
}

// BenchmarkPredict measures single-sample prediction latency through the
// full-suite tree (with smoothing), interpreted: a recursive pointer walk
// plus one model evaluation per root-path ancestor.
func BenchmarkPredict(b *testing.B) {
	s := benchStudy(b)
	benchPredictEachSample(b, s.CPU, s.CPUTree.Predict)
}

// BenchmarkPredictCompiled measures the same prediction through the
// compiled flat-array form: one SoA traversal plus a single pre-composed
// dot product.
func BenchmarkPredictCompiled(b *testing.B) {
	s := benchStudy(b)
	benchPredictEachSample(b, s.CPU, s.CPUTreeCompiled.Predict)
}

// benchPredictEachSample times one predict call per sample of d, one
// pass over the dataset per op, and reports ns/sample. Cycling through
// every sample keeps the branch predictor from learning a single
// root-to-leaf path, which scoring one sample over and over would let it
// do. The call goes through a func value, so it cannot be inlined away.
func benchPredictEachSample(b *testing.B, d *dataset.Dataset, predict func(x []float64) float64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, smp := range d.Samples {
			predict(smp.X)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.Len()), "ns/sample")
}

// benchBuildWorkers times full tree induction (grow + fit + prune +
// smoothing setup) on the full CPU2006 dataset at a fixed worker count.
func benchBuildWorkers(b *testing.B, workers int) {
	s := benchStudy(b)
	opts := s.Config.Tree
	opts.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtree.Build(s.CPU, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSerial pins the single-worker induction cost; the
// speedup of BenchmarkBuildParallel over this is the tentpole's headline
// number (the trees are byte-identical either way — see
// TestParallelBuildMatchesSerial).
func BenchmarkBuildSerial(b *testing.B)   { benchBuildWorkers(b, 1) }
func BenchmarkBuildParallel(b *testing.B) { benchBuildWorkers(b, 0) }

// benchPredictDatasetCompiledWorkers times the compiled batch scorer over
// the full CPU2006 dataset at a fixed worker count.
func benchPredictDatasetCompiledWorkers(b *testing.B, workers int) {
	s := benchStudy(b)
	ctree, err := s.CPUTree.Compile()
	if err != nil {
		b.Fatal(err)
	}
	ctree = ctree.WithWorkers(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds, err := ctree.PredictDatasetCheckedContext(context.Background(), s.CPU)
		if err != nil || len(preds) != s.CPU.Len() {
			b.Fatalf("short prediction vector (err %v)", err)
		}
	}
}

func BenchmarkPredictDatasetCompiledSerial(b *testing.B)   { benchPredictDatasetCompiledWorkers(b, 1) }
func BenchmarkPredictDatasetCompiledParallel(b *testing.B) { benchPredictDatasetCompiledWorkers(b, 0) }

// benchPredictColumnarWorkers times the column-major scorer over the
// same dataset in its zero-parse columnar form — the layout `specchar
// convert` writes and OpenColumnar maps. Each sample is gathered into a
// row buffer and scored by Predict, bit-identically to the row path (the
// retired column-walk and tile-transpose kernels' numbers are in
// BENCH_PR10.json).
func benchPredictColumnarWorkers(b *testing.B, workers int) {
	s := benchStudy(b)
	ctree, err := s.CPUTree.Compile()
	if err != nil {
		b.Fatal(err)
	}
	ctree = ctree.WithWorkers(workers)
	col := s.CPU.ToColumnar()
	defer col.Close()
	cols, n := col.Columns(), col.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds, err := ctree.PredictColumnsCheckedContext(context.Background(), cols, n)
		if err != nil || len(preds) != n {
			b.Fatalf("short prediction vector (err %v)", err)
		}
	}
}

func BenchmarkPredictColumnarSerial(b *testing.B)   { benchPredictColumnarWorkers(b, 1) }
func BenchmarkPredictColumnarParallel(b *testing.B) { benchPredictColumnarWorkers(b, 0) }

// --- helpers ---

type evalResult struct{ c, mae float64 }

func evalOn(b *testing.B, tree *mtree.Tree, s *Study) evalResult {
	b.Helper()
	rep, err := computeMetrics(tree, s.CPUTest)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

func computeMetrics(tree *mtree.Tree, test *dataset.Dataset) (evalResult, error) {
	preds := make([]float64, test.Len())
	for i, s := range test.Samples {
		preds[i] = tree.Predict(s.X)
	}
	rep, err := metrics.Compute(preds, test.Ys())
	if err != nil {
		return evalResult{}, err
	}
	return evalResult{c: rep.Correlation, mae: rep.MAE}, nil
}

func newSplitRNG() *dataset.RNG { return dataset.NewRNG(424242) }

// BenchmarkSubsetSelection regenerates the subsetting extension: PCA +
// clustering representative selection over CPU2006, validated through the
// model tree.
func BenchmarkSubsetSelection(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.SelectSubset("cpu2006", 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.K), "k")
			b.ReportMetric(100*r.SubsetProfileDistance, "subset-dist-%")
			b.ReportMetric(100*r.NaiveProfileDistance, "naive-dist-%")
		}
	}
}

// BenchmarkAblationContention (A5) measures the shared-L2 contention
// effect of the dual-core package on the parallel OMP2001 suite: a
// sibling thread of the same phase runs on the second core, and the
// suite's CPI and L2 pressure rise accordingly.
func BenchmarkAblationContention(b *testing.B) {
	for _, contended := range []bool{false, true} {
		name := "solo"
		if contended {
			name = "sibling"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen := suites.DefaultGenOptions()
				gen.SamplesPerBenchmark = 40
				gen.Contention = contended
				d, err := suites.Generate(suites.OMP2001(), gen)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					sum, err := d.Summary()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(sum.Mean, "CPI")
					j := slices.Index(d.Schema.Attributes, "L2Miss")
					var l2 float64
					for _, smp := range d.Samples {
						l2 += smp.X[j]
					}
					b.ReportMetric(1000*l2/float64(d.Len()), "L2Miss-per-1k")
				}
			}
		})
	}
}

// BenchmarkModelComparison regenerates the regression-algorithm
// comparison (the paper's reference [15] experiment): M5' vs global
// linear vs k-NN vs MLP on the CPU2006 transfer task.
func BenchmarkModelComparison(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.CompareModels()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				switch {
				case strings.HasPrefix(r.Name, "M5'"):
					b.ReportMetric(r.Metrics.Correlation, "C-tree")
				case strings.HasPrefix(r.Name, "global"):
					b.ReportMetric(r.Metrics.Correlation, "C-linear")
				case strings.HasSuffix(r.Name, "neighbours"):
					b.ReportMetric(r.Metrics.Correlation, "C-knn")
				case strings.HasPrefix(r.Name, "bagged"):
					b.ReportMetric(r.Metrics.Correlation, "C-bagged")
				case strings.HasPrefix(r.Name, "MLP"):
					b.ReportMetric(r.Metrics.Correlation, "C-mlp")
				}
			}
		}
	}
}

// BenchmarkPhaseDetection regenerates the phase-detection validation:
// sliding-window boundary detection on every CPU2006 benchmark's interval
// sequence, scored against the generator's ground-truth phase labels.
func BenchmarkPhaseDetection(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := s.PhaseReport()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			idx := strings.Index(report, "mean agreement: ")
			var mean float64
			fmt.Sscanf(report[idx:], "mean agreement: %f", &mean)
			b.ReportMetric(mean, "agreement")
		}
	}
}

// BenchmarkPlatformTransfer regenerates the cross-platform
// transferability experiment: the default-platform CPU2006 model applied
// to the suite re-generated on a cut-down platform (1MB L2, 64-entry
// DTLB).
func BenchmarkPlatformTransfer(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := s.PlatformReport()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && !strings.Contains(report, "transferable=false") {
			b.Fatal("cross-platform transfer unexpectedly succeeded")
		}
	}
}

// BenchmarkNoiseSweep regenerates the measurement-noise robustness sweep.
func BenchmarkNoiseSweep(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := s.NoiseSweep(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(points[0].Metrics.MAE, "MAE-clean")
			b.ReportMetric(points[len(points)-1].Metrics.MAE, "MAE-noisiest")
		}
	}
}

// BenchmarkLineageTransfer regenerates the suite-lineage experiment:
// CPU2006 model applied to a synthetic SPEC CPU2000.
func BenchmarkLineageTransfer(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LineageReport(); err != nil {
			b.Fatal(err)
		}
	}
}
