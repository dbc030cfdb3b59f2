package mtree

import (
	"context"
	"fmt"
	"sort"

	"specchar/internal/dataset"
	"specchar/internal/robust"
)

// SplitCandidate reports, for one attribute, the best available split of a
// dataset and the standard deviation reduction it achieves. The paper
// reads the tree's top split variables as the ranking of performance
// factors; EvaluateSplitsContext exposes that ranking directly, without
// building a full tree.
type SplitCandidate struct {
	Attr      int     // attribute (column) index
	Name      string  // attribute name from the schema
	Threshold float64 // best split threshold for this attribute
	SDR       float64 // standard deviation reduction at that threshold
	Valid     bool    // false when the attribute admits no split
}

// EvaluateSplitsContext computes the best split per attribute over the
// whole dataset, returned in descending SDR order. MinLeaf from opts
// constrains the candidate thresholds exactly as during tree induction,
// and the per-attribute scans fan out across the bounded worker pool
// configured by opts.Workers, like bestSplit does during induction.
// Results are written per attribute and stably sorted afterwards, so every
// worker count produces the identical ranking.
//
// Queued attribute scans are skipped once the context is canceled and a
// wrapped ctx.Err() is returned; a panicking scan worker is contained and
// returned as an error.
func EvaluateSplitsContext(ctx context.Context, d *dataset.Dataset, opts Options) ([]SplitCandidate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d.Len() == 0 {
		return nil, nil
	}
	if opts.MinLeaf < 1 {
		opts.MinLeaf = 1
	}
	b := &builder{xs: d.Xs(), ys: d.Ys(), cols: d.Columns(), ycol: d.Ys(), opts: opts}
	nAttrs := d.Schema.NumAttrs()
	b.attrOrd = make([][]int32, nAttrs)
	for a := range b.attrOrd {
		b.attrOrd[a] = make([]int32, d.Len())
	}
	b.badAttr = make([]bool, nAttrs)
	out := make([]SplitCandidate, nAttrs)
	scan := func(a int) {
		// Each attribute presorts its own order array inside the scan
		// closure, so the one-off sort cost rides the same worker fan-out
		// the per-node sorts of the seed implementation did.
		b.presortAttr(a)
		thr, sdr, ok := b.bestSplitForAttr(0, d.Len(), a)
		out[a] = SplitCandidate{Attr: a, Threshold: thr, SDR: sdr, Valid: ok}
		if a < len(d.Schema.Attributes) {
			out[a].Name = d.Schema.Attributes[a]
		}
	}
	if workers := effectiveWorkers(opts.Workers); workers > 1 && len(out) > 1 {
		g, _ := robust.NewGroup(ctx, workers)
		for a := range out {
			a := a
			g.Go(func() error { scan(a); return nil })
		}
		if err := g.Wait(); err != nil {
			return nil, fmt.Errorf("mtree: split evaluation: %w", err)
		}
	} else {
		err := robust.Safely(func() error {
			for a := range out {
				if err := ctx.Err(); err != nil {
					return err
				}
				scan(a)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("mtree: split evaluation: %w", err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SDR > out[j].SDR })
	return out, nil
}
