package transfer

import (
	"context"
	"fmt"

	"specchar/internal/dataset"
	"specchar/internal/metrics"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/robust"
	"specchar/internal/stats"
)

// MatrixSuite is one row/column of a transfer matrix: a named suite
// dataset. MatrixAssess splits it, trains the suite's model on the train
// share, and both lends the model to every column and lends its held-out
// share to every row.
type MatrixSuite struct {
	Name string
	Data *dataset.Dataset
}

// MatrixOptions configure an N×N matrix run.
type MatrixOptions struct {
	// TrainFraction is the share of each suite used to train that suite's
	// model (the paper's Section VI uses 10%); 0 means 0.10.
	TrainFraction float64

	// SplitSeed seeds the per-suite stratified train/test partitions
	// (each suite's split RNG is derived from it and the suite index, so
	// cell scheduling never affects the partitions).
	SplitSeed uint64

	// Tree drives the per-suite M5' inductions; zero value means
	// mtree.DefaultOptions.
	Tree mtree.Options

	// Assess carries the per-cell significance level and acceptance
	// thresholds (zero value: alpha 0.05, the paper's C/MAE thresholds).
	Assess Options

	// Workers bounds the number of concurrently assessed cells; 0 means
	// one per cell (the pool is also what bounds the per-suite
	// inductions). Results are identical at every worker count.
	Workers int
}

// MatrixCell is one ordered (train suite, test suite) entry: the Section
// VI battery's verdict for the row suite's model applied to the column
// suite's held-out data.
type MatrixCell struct {
	Train string `json:"train"`
	Test  string `json:"test"`

	TrainN int `json:"train_n"` // training-sample count (row suite's train share)
	TestN  int `json:"test_n"`  // evaluated-sample count (column suite's held-out share)

	// SampleT compares the train and test response samples (H0: equal
	// mean CPI); PredictionT compares predictions to actuals on the test
	// set (the paper's Equation 11).
	SampleT     stats.TestResult `json:"sample_t"`
	PredictionT stats.TestResult `json:"prediction_t"`

	Correlation float64 `json:"correlation"` // the paper's C on the test set
	MAE         float64 `json:"mae"`         // mean absolute error, CPI units

	// HypothesisOK is the Section VI-A verdict (both t-tests retain H0),
	// MetricsOK the Section VI-B verdict (C/MAE thresholds), Transferable
	// their conjunction.
	HypothesisOK bool `json:"hypothesis_ok"`
	MetricsOK    bool `json:"metrics_ok"`
	Transferable bool `json:"transferable"`

	// Assessment is the full battery behind the summary fields (rank and
	// variance tests, summaries, sensitivity); not serialized.
	Assessment *Assessment `json:"-"`
}

// TransferMatrix is the result of an N×N matrix run: the paper's
// acceptance grid generalized to every ordered suite pair.
type TransferMatrix struct {
	// Suites lists the suite names in row/column order.
	Suites []string `json:"suites"`

	Alpha         float64            `json:"alpha"`
	Thresholds    metrics.Thresholds `json:"thresholds"`
	TrainFraction float64            `json:"train_fraction"`

	// Cells[i][j] holds the model of Suites[i] applied to the held-out
	// data of Suites[j]; the diagonal is within-suite generalization.
	Cells [][]MatrixCell `json:"cells"`
}

// MatrixAssess runs the full N×N transfer experiment over the given
// suites: each suite is stratified-split, a model tree is trained and
// compiled on its train share, and every ordered (model, held-out test
// set) pair is assessed with the Section VI battery. See MatrixAssessContext.
func MatrixAssess(suites []MatrixSuite, opts MatrixOptions) (*TransferMatrix, error) {
	return MatrixAssessContext(context.Background(), suites, opts)
}

// MatrixAssessContext is MatrixAssess with cooperative cancellation. The
// per-suite inductions and the N² assessments all run on one bounded
// worker pool (a panicking worker is contained and cancels its siblings);
// the result is byte-identical at every worker count because every
// random choice is derived from SplitSeed and suite position, never from
// scheduling order.
func MatrixAssessContext(ctx context.Context, suites []MatrixSuite, opts MatrixOptions) (*TransferMatrix, error) {
	if len(suites) < 2 {
		return nil, fmt.Errorf("transfer: matrix needs at least two suites, got %d", len(suites))
	}
	seen := make(map[string]bool, len(suites))
	for i := range suites {
		if suites[i].Name == "" || suites[i].Data == nil {
			return nil, fmt.Errorf("transfer: matrix suite %d needs a name and a dataset", i)
		}
		if seen[suites[i].Name] {
			return nil, fmt.Errorf("transfer: duplicate matrix suite %q", suites[i].Name)
		}
		seen[suites[i].Name] = true
	}
	frac := opts.TrainFraction
	if frac <= 0 || frac >= 1 {
		frac = 0.10
	}
	treeOpts := opts.Tree
	if treeOpts == (mtree.Options{}) {
		treeOpts = mtree.DefaultOptions()
	}
	aopts := opts.Assess
	if aopts.Alpha == 0 {
		aopts.Alpha = 0.05
	}
	if aopts.Thresholds == (metrics.Thresholds{}) {
		aopts.Thresholds = metrics.PaperThresholds()
	}
	n := len(suites)
	workers := opts.Workers
	if workers <= 0 {
		workers = n * n
	}
	rec := obs.FromContext(ctx)
	sctx, span := rec.StartSpan(ctx, "transfer.matrix",
		obs.A("suites", n), obs.A("cells", n*n), obs.A("workers", workers))
	defer span.End()

	// Stage 1: split and train every suite's model on the pool. The split
	// itself is cheap and deterministic; the induction dominates.
	type arm struct {
		train, test *dataset.Dataset
		model       *mtree.CompiledTree
	}
	arms := make([]arm, n)
	g, gctx := robust.NewGroup(sctx, workers)
	for i := range suites {
		i := i
		g.Go(func() error {
			rng := dataset.NewRNG(opts.SplitSeed ^ (uint64(i+1) * 0x9E3779B97F4A7C15))
			train, test := suites[i].Data.StratifiedSplit(rng, frac)
			if train.Len() < 2 || test.Len() < 2 {
				return fmt.Errorf("transfer: matrix suite %s: fraction %.3f leaves too few samples (train %d, test %d)",
					suites[i].Name, frac, train.Len(), test.Len())
			}
			tree, err := mtree.BuildContext(gctx, train, treeOpts)
			if err != nil {
				return fmt.Errorf("transfer: matrix model for %s: %w", suites[i].Name, err)
			}
			model, err := tree.CompileContext(gctx)
			if err != nil {
				return fmt.Errorf("transfer: compiling matrix model for %s: %w", suites[i].Name, err)
			}
			arms[i] = arm{train: train, test: test, model: model}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}

	// Stage 2: fan the N² cells out on a fresh pool over the same bound.
	// Each cell reuses the row's trained model and AssessContext verbatim,
	// so a matrix cell and a standalone assessment can never disagree.
	m := &TransferMatrix{
		Suites:        make([]string, n),
		Alpha:         aopts.Alpha,
		Thresholds:    aopts.Thresholds,
		TrainFraction: frac,
		Cells:         make([][]MatrixCell, n),
	}
	for i := range suites {
		m.Suites[i] = suites[i].Name
		m.Cells[i] = make([]MatrixCell, n)
	}
	g, gctx = robust.NewGroup(sctx, workers)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			i, j := i, j
			g.Go(func() error {
				cctx, cspan := rec.StartSpan(gctx, "transfer.matrix.cell",
					obs.A("train", suites[i].Name), obs.A("test", suites[j].Name))
				defer cspan.End()
				a, err := AssessContext(cctx, arms[i].model, arms[i].train, arms[j].test,
					suites[i].Name, suites[j].Name, aopts)
				if err != nil {
					return fmt.Errorf("transfer: matrix cell %s -> %s: %w", suites[i].Name, suites[j].Name, err)
				}
				cspan.SetRows(arms[j].test.Len())
				cell := MatrixCell{
					Train:        suites[i].Name,
					Test:         suites[j].Name,
					TrainN:       arms[i].train.Len(),
					TestN:        arms[j].test.Len(),
					SampleT:      a.SampleTest,
					PredictionT:  a.PredictionTest,
					Correlation:  a.Metrics.Correlation,
					MAE:          a.Metrics.MAE,
					HypothesisOK: a.HypothesisTransferable(),
					MetricsOK:    a.MetricsTransferable(),
					Transferable: a.Transferable(),
					Assessment:   a,
				}
				m.Cells[i][j] = cell
				rec.Counter("specchar_matrix_cells_total").Add(1)
				if cell.Transferable {
					rec.Counter("specchar_matrix_transferable_total").Add(1)
				}
				return nil
			})
		}
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	span.SetRows(n * n)
	return m, nil
}
