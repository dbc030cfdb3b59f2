package mtree

import (
	"context"
	"errors"
	"fmt"
	"math"

	"specchar/internal/dataset"
	"specchar/internal/faultinject"
	"specchar/internal/obs"
	"specchar/internal/robust"
)

// CVResult summarizes a k-fold cross-validation of tree induction on a
// dataset: per-fold held-out errors and their aggregates. It is the
// statistically careful way to quote a single model-accuracy number for a
// dataset, complementing the single-split protocol of the paper's
// Section VI.
type CVResult struct {
	Folds    int
	FoldMAE  []float64 // held-out mean absolute error per fold
	FoldRMSE []float64
	MeanMAE  float64
	MeanRMSE float64
	// StdErrMAE is the standard error of the fold MAEs, quantifying the
	// stability of the estimate.
	StdErrMAE float64
}

// CrossValidateContext performs k-fold cross-validation: the dataset is
// shuffled deterministically by seed, partitioned into k folds, and a
// tree is trained on each k-1 fold union and scored on the held-out fold.
// Folds are independent, so they train concurrently on the worker pool
// configured by opts.Workers; the fold partition and every per-fold
// number are identical for any worker count.
//
// A canceled context stops queued folds, propagates into each in-flight
// fold's induction and scoring, and is returned as a wrapped ctx.Err().
// A panic on any fold worker is contained (stack attached), cancels the
// sibling folds, and fails the cross-validation cleanly.
func CrossValidateContext(ctx context.Context, d *dataset.Dataset, k int, opts Options, seed uint64) (*CVResult, error) {
	n := d.Len()
	if k < 2 {
		return nil, errors.New("mtree: cross-validation requires k >= 2")
	}
	if n < 2*k {
		return nil, fmt.Errorf("mtree: %d samples too few for %d folds", n, k)
	}
	rec := obs.FromContext(ctx)
	sctx, span := rec.StartSpan(ctx, "mtree.cv", obs.A("folds", k))
	span.SetRows(n)
	defer span.End()
	ctx = sctx
	perm := dataset.NewRNG(seed).Perm(n)
	res := &CVResult{
		Folds:    k,
		FoldMAE:  make([]float64, k),
		FoldRMSE: make([]float64, k),
	}
	workers := effectiveWorkers(opts.Workers)
	if workers > k {
		workers = k
	}
	g, gctx := robust.NewGroup(ctx, workers)
	for fold := 0; fold < k; fold++ {
		fold := fold
		g.Go(func() error {
			fctx, fspan := rec.StartSpan(gctx, "mtree.cv.fold", obs.A("fold", fold))
			defer fspan.End()
			faultinject.Sleep("mtree.cv.fold")
			faultinject.CheckPanic("mtree.cv.fold")
			if err := faultinject.Check("mtree.cv.fold"); err != nil {
				return fmt.Errorf("mtree: fold %d: %w", fold, err)
			}
			train := dataset.New(d.Schema)
			test := dataset.New(d.Schema)
			for i, idx := range perm {
				if i%k == fold {
					test.Samples = append(test.Samples, d.Samples[idx])
				} else {
					train.Samples = append(train.Samples, d.Samples[idx])
				}
			}
			tree, err := BuildContext(fctx, train, opts)
			if err != nil {
				return fmt.Errorf("mtree: fold %d: %w", fold, err)
			}
			// Score the fold on the compiled form: each fold's tree is
			// built once and scores many samples, the compiled path's
			// sweet spot.
			ctree, err := tree.CompileContext(fctx)
			if err != nil {
				return fmt.Errorf("mtree: fold %d: %w", fold, err)
			}
			fspan.SetRows(test.Len())
			preds, err := ctree.PredictDatasetCheckedContext(fctx, test)
			if err != nil {
				return fmt.Errorf("mtree: fold %d: %w", fold, err)
			}
			var absSum, sqSum float64
			for i, p := range preds {
				r := p - test.Samples[i].Y
				absSum += math.Abs(r)
				sqSum += r * r
			}
			m := float64(test.Len())
			res.FoldMAE[fold] = absSum / m
			res.FoldRMSE[fold] = math.Sqrt(sqSum / m)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, fmt.Errorf("mtree: cross-validation: %w", err)
	}
	for i := 0; i < k; i++ {
		res.MeanMAE += res.FoldMAE[i]
		res.MeanRMSE += res.FoldRMSE[i]
	}
	res.MeanMAE /= float64(k)
	res.MeanRMSE /= float64(k)
	var ss float64
	for _, v := range res.FoldMAE {
		d := v - res.MeanMAE
		ss += d * d
	}
	if k > 1 {
		res.StdErrMAE = math.Sqrt(ss/float64(k-1)) / math.Sqrt(float64(k))
	}
	return res, nil
}

// String renders the cross-validation summary.
func (r *CVResult) String() string {
	return fmt.Sprintf("%d-fold CV: MAE %.4f ± %.4f (se), RMSE %.4f",
		r.Folds, r.MeanMAE, r.StdErrMAE, r.MeanRMSE)
}
