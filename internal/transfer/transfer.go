// Package transfer implements the paper's Section VI: statistical
// assessment of whether a performance model trained on one workload suite
// can be used to study another.
//
// Two complementary methods are provided, as in the paper:
//
//   - Two-sample hypothesis tests (Section VI-A): a pooled t-test between
//     the training and test response distributions (H0: mu1 = mu2), and a
//     second two-sample t-test between the model's predictions and the
//     actual responses on the test set (H0: mu_pred = mu_actual, the
//     paper's Equation 11). Rejection of either Null at the chosen
//     significance level argues against transferability.
//   - Prediction-accuracy metrics (Section VI-B): the correlation
//     coefficient C and the mean absolute error MAE of predictions on the
//     test set, compared against domain acceptance thresholds
//     (C >= 0.85, MAE <= 0.15 in the paper).
package transfer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"specchar/internal/dataset"
	"specchar/internal/metrics"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/stats"
)

// Assessment is the outcome of one transferability study: model trained on
// TrainName applied to TestName.
type Assessment struct {
	TrainName, TestName string

	// TrainSummary / TestSummary describe the response distributions.
	TrainSummary stats.Summary
	TestSummary  stats.Summary

	// SampleTest compares the training and test response distributions
	// directly (H0: the suites share a CPI mean).
	SampleTest stats.TestResult

	// PredictionTest compares the sample of predicted responses to the
	// sample of actual responses on the test set (H0: mu_pred =
	// mu_actual), using the paper's Equation 11 form: an unpaired
	// two-sample statistic with 2m-2 degrees of freedom.
	PredictionTest stats.TestResult

	// RankTest is the non-parametric Mann-Whitney check on the two
	// response samples, reported alongside the t-tests as the paper
	// suggests.
	RankTest stats.TestResult

	// VarianceTest is Levene's test for response variance equality.
	VarianceTest stats.TestResult

	// Metrics are the prediction-accuracy numbers on the test set.
	Metrics metrics.Report

	// Thresholds are the acceptance criteria applied to Metrics.
	Thresholds metrics.Thresholds

	// Alpha is the significance level used by Transferable.
	Alpha float64

	// MinDetectableDiff is the smallest true CPI-mean difference the
	// sample t-test could detect with 80% power at Alpha, given these
	// sample sizes — the sensitivity of the study design.
	MinDetectableDiff float64
}

// Options configure an assessment.
type Options struct {
	Alpha      float64            // significance level; 0 means 0.05 (the paper's 95%)
	Thresholds metrics.Thresholds // zero value means metrics.PaperThresholds()
}

// Predictor is the model-side dependency of an assessment: a trained
// model that can score a dataset with input validation, stopping at a
// chunk boundary when the context is canceled. The compiled batch form
// of a tree (*mtree.CompiledTree) satisfies it.
type Predictor interface {
	PredictDatasetCheckedContext(ctx context.Context, d *dataset.Dataset) ([]float64, error)
}

// Assess applies the model to the test set and runs the full battery.
// train must be the dataset the model was trained on (its response sample
// is the L1 of Section VI); test is L2.
func Assess(model Predictor, train, test *dataset.Dataset, trainName, testName string, opts Options) (*Assessment, error) {
	return AssessContext(context.Background(), model, train, test, trainName, testName, opts)
}

// AssessContext is Assess with cooperative cancellation: the prediction
// pass observes the context, and a canceled context is returned as a
// wrapped ctx.Err().
func AssessContext(ctx context.Context, model Predictor, train, test *dataset.Dataset, trainName, testName string, opts Options) (*Assessment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transfer: assessment canceled: %w", err)
	}
	sctx, span := obs.FromContext(ctx).StartSpan(ctx, "transfer.assess",
		obs.A("train", trainName), obs.A("test", testName))
	span.SetRows(test.Len())
	defer span.End()
	ctx = sctx
	if train.Len() < 2 || test.Len() < 2 {
		return nil, errors.New("transfer: need at least two samples on each side")
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.05
	}
	if opts.Thresholds == (metrics.Thresholds{}) {
		opts.Thresholds = metrics.PaperThresholds()
	}
	a := &Assessment{
		TrainName:  trainName,
		TestName:   testName,
		Thresholds: opts.Thresholds,
		Alpha:      opts.Alpha,
	}
	trainY := train.Ys()
	testY := test.Ys()
	var err error
	if a.TrainSummary, err = stats.Describe(trainY); err != nil {
		return nil, err
	}
	if a.TestSummary, err = stats.Describe(testY); err != nil {
		return nil, err
	}
	if a.SampleTest, err = stats.TwoSampleTTest(trainY, testY); err != nil {
		return nil, err
	}
	pred, err := model.PredictDatasetCheckedContext(ctx, test)
	if err != nil {
		return nil, fmt.Errorf("transfer: applying %s model to %s: %w", trainName, testName, err)
	}
	if a.PredictionTest, err = stats.TwoSampleTTest(pred, testY); err != nil {
		return nil, err
	}
	if a.RankTest, err = stats.MannWhitneyU(trainY, testY); err != nil {
		return nil, err
	}
	if a.VarianceTest, err = stats.LeveneTest(trainY, testY); err != nil {
		return nil, err
	}
	if a.Metrics, err = metrics.Compute(pred, testY); err != nil {
		return nil, err
	}
	pooledSD := math.Sqrt((a.TrainSummary.Variance + a.TestSummary.Variance) / 2)
	if pooledSD > 0 {
		if mdd, err := stats.DetectableDifference(pooledSD, train.Len(), test.Len(), opts.Alpha, 0.8); err == nil {
			a.MinDetectableDiff = mdd
		}
	}
	return a, nil
}

// HypothesisTransferable reports whether both t-tests retain their Null
// hypotheses at the assessment's significance level (the Section VI-A
// verdict).
func (a *Assessment) HypothesisTransferable() bool {
	return !a.SampleTest.RejectAt(a.Alpha) && !a.PredictionTest.RejectAt(a.Alpha)
}

// MetricsTransferable reports whether the prediction-accuracy metrics meet
// the acceptance thresholds (the Section VI-B verdict).
func (a *Assessment) MetricsTransferable() bool {
	return a.Thresholds.Acceptable(a.Metrics)
}

// Transferable reports the combined verdict: the paper requires agreement
// of the accuracy metrics, using the hypothesis tests as corroboration;
// here both must agree for a positive verdict.
func (a *Assessment) Transferable() bool {
	return a.HypothesisTransferable() && a.MetricsTransferable()
}

// String renders the assessment in the style of the paper's Section VI
// numbers.
func (a *Assessment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "transferability of %s model to %s:\n", a.TrainName, a.TestName)
	fmt.Fprintf(&b, "  train: n=%d mean=%.5f sd=%.4f | test: n=%d mean=%.5f sd=%.4f\n",
		a.TrainSummary.N, a.TrainSummary.Mean, a.TrainSummary.StdDev,
		a.TestSummary.N, a.TestSummary.Mean, a.TestSummary.StdDev)
	cv := a.SampleTest.CriticalValue(a.Alpha)
	fmt.Fprintf(&b, "  sample t-test:     t=%+.3f (|t| %s %.3f) -> H0 %s\n",
		a.SampleTest.Statistic, cmpWord(a.SampleTest, a.Alpha), cv, retained(!a.SampleTest.RejectAt(a.Alpha)))
	cv = a.PredictionTest.CriticalValue(a.Alpha)
	fmt.Fprintf(&b, "  prediction t-test: t=%+.3f (|t| %s %.3f) -> H0 %s\n",
		a.PredictionTest.Statistic, cmpWord(a.PredictionTest, a.Alpha), cv, retained(!a.PredictionTest.RejectAt(a.Alpha)))
	fmt.Fprintf(&b, "  Mann-Whitney:      z=%+.3f p=%.4g\n", a.RankTest.Statistic, a.RankTest.PValue)
	fmt.Fprintf(&b, "  Levene:            W=%.3f p=%.4g\n", a.VarianceTest.Statistic, a.VarianceTest.PValue)
	if a.MinDetectableDiff > 0 {
		fmt.Fprintf(&b, "  sensitivity:       smallest detectable CPI-mean shift at 80%% power: %.4f\n", a.MinDetectableDiff)
	}
	fmt.Fprintf(&b, "  accuracy:          C=%.4f (>= %.2f?) MAE=%.4f (<= %.2f?)\n",
		a.Metrics.Correlation, a.Thresholds.MinCorrelation, a.Metrics.MAE, a.Thresholds.MaxMAE)
	fmt.Fprintf(&b, "  verdict: hypothesis=%v metrics=%v -> transferable=%v\n",
		a.HypothesisTransferable(), a.MetricsTransferable(), a.Transferable())
	return b.String()
}

func cmpWord(r stats.TestResult, alpha float64) string {
	if r.RejectAt(alpha) {
		return ">"
	}
	return "<="
}

func retained(ok bool) string {
	if ok {
		return "retained"
	}
	return "rejected"
}

// TrainFractionSweep measures, for each training fraction, the accuracy of
// a model trained on that fraction of d and evaluated on the remainder —
// the evidence behind the paper's "a model trained on 10% of the data is
// transferable to the rest" claim (and ablation A3).
type SweepPoint struct {
	Fraction float64
	TrainN   int
	Metrics  metrics.Report
}

// Sweep runs TrainFractionSweep over the fractions with a deterministic
// split per fraction.
func Sweep(d *dataset.Dataset, fractions []float64, treeOpts mtree.Options, seed uint64) ([]SweepPoint, error) {
	return SweepContext(context.Background(), d, fractions, treeOpts, seed)
}

// SweepContext is Sweep with cooperative cancellation: each fraction's
// induction and scoring observe the context, and a canceled context is
// returned as a wrapped ctx.Err() with the completed points discarded.
func SweepContext(ctx context.Context, d *dataset.Dataset, fractions []float64, treeOpts mtree.Options, seed uint64) ([]SweepPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rec := obs.FromContext(ctx)
	sctx, span := rec.StartSpan(ctx, "transfer.sweep", obs.A("points", len(fractions)))
	span.SetRows(d.Len())
	defer span.End()
	ctx = sctx
	out := make([]SweepPoint, 0, len(fractions))
	for i, f := range fractions {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("transfer: sweep canceled at fraction %.3f: %w", f, err)
		}
		point, err := sweepPoint(ctx, rec, d, f, treeOpts, seed, i)
		if err != nil {
			return nil, err
		}
		out = append(out, point)
	}
	return out, nil
}

// sweepPoint trains and scores one fraction of the sweep under its own
// "transfer.sweep.point" span.
func sweepPoint(ctx context.Context, rec *obs.Recorder, d *dataset.Dataset, f float64, treeOpts mtree.Options, seed uint64, i int) (SweepPoint, error) {
	pctx, pspan := rec.StartSpan(ctx, "transfer.sweep.point", obs.A("fraction", f))
	defer pspan.End()
	rng := dataset.NewRNG(seed + uint64(i)*1469598103934665603)
	train, test := d.Split(rng, f)
	if train.Len() < 10 || test.Len() < 10 {
		return SweepPoint{}, fmt.Errorf("transfer: fraction %.3f leaves too few samples", f)
	}
	pspan.SetRows(test.Len())
	tree, err := mtree.BuildContext(pctx, train, treeOpts)
	if err != nil {
		return SweepPoint{}, err
	}
	// Each fraction's tree scores the (large) held-out remainder once:
	// compile it and run the batch scorer.
	ctree, err := tree.CompileContext(pctx)
	if err != nil {
		return SweepPoint{}, err
	}
	pred, err := ctree.PredictDatasetCheckedContext(pctx, test)
	if err != nil {
		return SweepPoint{}, err
	}
	rep, err := metrics.Compute(pred, test.Ys())
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{Fraction: f, TrainN: train.Len(), Metrics: rep}, nil
}
