// Package baselines implements the comparison regressors of the paper's
// reference [15] (Ould-Ahmed-Vall et al., "On the comparison of regression
// algorithms for computer architecture performance analysis"), which found
// M5 model trees as accurate as artificial neural networks while remaining
// interpretable. Three baselines are provided:
//
//   - Linear: a single global least-squares model (the degenerate
//     one-leaf model tree);
//   - KNN: k-nearest-neighbour regression with standardized distances;
//   - MLP: a single-hidden-layer neural network trained by mini-batch
//     gradient descent.
//
// All satisfy the Regressor interface so the facade's model-comparison
// experiment can evaluate them uniformly against internal/mtree.
package baselines

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"specchar/internal/dataset"
	"specchar/internal/linreg"
)

// Regressor is a trained model over full-width attribute vectors.
type Regressor interface {
	// Predict returns the response estimate for one sample vector.
	Predict(x []float64) float64
	// Name identifies the algorithm for reports.
	Name() string
}

// ErrNoData is returned when training data is empty.
var ErrNoData = errors.New("baselines: empty training set")

// ---------------------------------------------------------------- linear

// Linear wraps a single global least-squares model.
type Linear struct {
	model *linreg.Model
}

// TrainLinear fits a simplified global linear model on the dataset.
func TrainLinear(d *dataset.Dataset) (*Linear, error) {
	if d.Len() == 0 {
		return nil, ErrNoData
	}
	terms := make([]int, d.Schema.NumAttrs())
	for i := range terms {
		terms[i] = i
	}
	m, err := linreg.Fit(d.Xs(), d.Ys(), terms)
	if err != nil {
		return nil, err
	}
	return &Linear{model: linreg.Simplify(m, d.Xs(), d.Ys())}, nil
}

// Predict implements Regressor.
func (l *Linear) Predict(x []float64) float64 { return l.model.Predict(x) }

// Name implements Regressor.
func (l *Linear) Name() string { return "global linear regression" }

// ------------------------------------------------------------------- kNN

// KNN is a k-nearest-neighbour regressor over standardized attributes.
type KNN struct {
	k     int
	xs    [][]float64 // standardized training points
	ys    []float64
	mean  []float64
	scale []float64
}

// TrainKNN memorizes the dataset with per-attribute standardization.
func TrainKNN(d *dataset.Dataset, k int) (*KNN, error) {
	n := d.Len()
	if n == 0 {
		return nil, ErrNoData
	}
	if k < 1 {
		return nil, errors.New("baselines: k must be >= 1")
	}
	if k > n {
		k = n
	}
	dim := d.Schema.NumAttrs()
	m := &KNN{k: k, ys: d.Ys(), mean: make([]float64, dim), scale: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		col := d.Column(j)
		var sum float64
		for _, v := range col {
			sum += v
		}
		m.mean[j] = sum / float64(n)
		var ss float64
		for _, v := range col {
			dv := v - m.mean[j]
			ss += dv * dv
		}
		m.scale[j] = math.Sqrt(ss / float64(n))
		if m.scale[j] == 0 {
			m.scale[j] = 1
		}
	}
	m.xs = make([][]float64, n)
	for i, s := range d.Samples {
		m.xs[i] = m.standardize(s.X)
	}
	return m, nil
}

func (m *KNN) standardize(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - m.mean[j]) / m.scale[j]
	}
	return out
}

// Predict implements Regressor: the mean response of the k nearest
// training points (Euclidean distance in standardized space).
func (m *KNN) Predict(x []float64) float64 {
	z := m.standardize(x)
	type cand struct {
		d float64
		y float64
	}
	// Maintain the k best in a small slice (k is tiny; O(nk) is fine and
	// allocation-free in the loop).
	best := make([]cand, 0, m.k)
	worst := math.Inf(1)
	for i, p := range m.xs {
		var dist float64
		for j := range p {
			dd := p[j] - z[j]
			dist += dd * dd
			if dist >= worst && len(best) == m.k {
				break
			}
		}
		if len(best) < m.k {
			best = append(best, cand{dist, m.ys[i]})
			if len(best) == m.k {
				sort.Slice(best, func(a, b int) bool { return best[a].d < best[b].d })
				worst = best[m.k-1].d
			}
			continue
		}
		if dist < worst {
			// Insert in order, dropping the current worst.
			pos := sort.Search(m.k, func(a int) bool { return best[a].d > dist })
			copy(best[pos+1:], best[pos:m.k-1])
			best[pos] = cand{dist, m.ys[i]}
			worst = best[m.k-1].d
		}
	}
	var sum float64
	for _, c := range best {
		sum += c.y
	}
	return sum / float64(len(best))
}

// Name implements Regressor.
func (m *KNN) Name() string { return fmt.Sprintf("%d-nearest neighbours", m.k) }

// ------------------------------------------------------------------- MLP

// MLPConfig parameterizes network training.
type MLPConfig struct {
	Hidden    int     // hidden units; 0 defaults to 16
	Epochs    int     // passes over the data; 0 defaults to 200
	Batch     int     // mini-batch size; 0 defaults to 32
	LearnRate float64 // 0 defaults to 0.01
	Seed      uint64  // weight init / shuffling seed
}

// MLP is a single-hidden-layer (tanh) neural network for regression,
// trained by mini-batch gradient descent on standardized inputs and
// response.
type MLP struct {
	hidden int
	// w1 [hidden][dim+1] input->hidden weights (last column bias);
	// w2 [hidden+1] hidden->output weights (last element bias).
	w1 [][]float64
	w2 []float64

	meanX, scaleX []float64
	meanY, scaleY float64
}

// TrainMLP trains the network on the dataset.
func TrainMLP(d *dataset.Dataset, cfg MLPConfig) (*MLP, error) {
	n := d.Len()
	if n == 0 {
		return nil, ErrNoData
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 200
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 0.01
	}
	dim := d.Schema.NumAttrs()
	rng := dataset.NewRNG(cfg.Seed ^ 0x6D6C70)

	m := &MLP{hidden: cfg.Hidden, meanX: make([]float64, dim), scaleX: make([]float64, dim)}
	// Standardization of inputs and response.
	for j := 0; j < dim; j++ {
		col := d.Column(j)
		var sum float64
		for _, v := range col {
			sum += v
		}
		m.meanX[j] = sum / float64(n)
		var ss float64
		for _, v := range col {
			dv := v - m.meanX[j]
			ss += dv * dv
		}
		m.scaleX[j] = math.Sqrt(ss / float64(n))
		if m.scaleX[j] == 0 {
			m.scaleX[j] = 1
		}
	}
	ys := d.Ys()
	for _, y := range ys {
		m.meanY += y
	}
	m.meanY /= float64(n)
	var ssy float64
	for _, y := range ys {
		dy := y - m.meanY
		ssy += dy * dy
	}
	m.scaleY = math.Sqrt(ssy / float64(n))
	if m.scaleY == 0 {
		m.scaleY = 1
	}

	// Pre-standardize the training set.
	zx := make([][]float64, n)
	zy := make([]float64, n)
	for i, s := range d.Samples {
		row := make([]float64, dim)
		for j, v := range s.X {
			row[j] = (v - m.meanX[j]) / m.scaleX[j]
		}
		zx[i] = row
		zy[i] = (s.Y - m.meanY) / m.scaleY
	}

	// Xavier-ish init.
	lim1 := 1 / math.Sqrt(float64(dim))
	m.w1 = make([][]float64, cfg.Hidden)
	for h := range m.w1 {
		m.w1[h] = make([]float64, dim+1)
		for j := range m.w1[h] {
			m.w1[h][j] = (rng.Float64()*2 - 1) * lim1
		}
	}
	lim2 := 1 / math.Sqrt(float64(cfg.Hidden))
	m.w2 = make([]float64, cfg.Hidden+1)
	for h := range m.w2 {
		m.w2[h] = (rng.Float64()*2 - 1) * lim2
	}

	hiddenOut := make([]float64, cfg.Hidden)
	gradW2 := make([]float64, cfg.Hidden+1)
	gradW1 := make([][]float64, cfg.Hidden)
	for h := range gradW1 {
		gradW1[h] = make([]float64, dim+1)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(n)
		for start := 0; start < n; start += cfg.Batch {
			end := start + cfg.Batch
			if end > n {
				end = n
			}
			for h := range gradW2 {
				gradW2[h] = 0
			}
			for h := range gradW1 {
				for j := range gradW1[h] {
					gradW1[h][j] = 0
				}
			}
			for _, pi := range perm[start:end] {
				x := zx[pi]
				// Forward.
				for h := 0; h < cfg.Hidden; h++ {
					s := m.w1[h][dim] // bias
					for j := 0; j < dim; j++ {
						s += m.w1[h][j] * x[j]
					}
					hiddenOut[h] = math.Tanh(s)
				}
				pred := m.w2[cfg.Hidden]
				for h := 0; h < cfg.Hidden; h++ {
					pred += m.w2[h] * hiddenOut[h]
				}
				// Backward (squared error).
				errOut := pred - zy[pi]
				for h := 0; h < cfg.Hidden; h++ {
					gradW2[h] += errOut * hiddenOut[h]
					dh := errOut * m.w2[h] * (1 - hiddenOut[h]*hiddenOut[h])
					for j := 0; j < dim; j++ {
						gradW1[h][j] += dh * x[j]
					}
					gradW1[h][dim] += dh
				}
				gradW2[cfg.Hidden] += errOut
			}
			scale := cfg.LearnRate / float64(end-start)
			for h := 0; h <= cfg.Hidden; h++ {
				m.w2[h] -= scale * gradW2[h]
			}
			for h := 0; h < cfg.Hidden; h++ {
				for j := 0; j <= dim; j++ {
					m.w1[h][j] -= scale * gradW1[h][j]
				}
			}
		}
	}
	return m, nil
}

// Predict implements Regressor.
func (m *MLP) Predict(x []float64) float64 {
	dim := len(m.meanX)
	pred := m.w2[m.hidden]
	for h := 0; h < m.hidden; h++ {
		s := m.w1[h][dim]
		for j := 0; j < dim && j < len(x); j++ {
			s += m.w1[h][j] * (x[j] - m.meanX[j]) / m.scaleX[j]
		}
		pred += m.w2[h] * math.Tanh(s)
	}
	return pred*m.scaleY + m.meanY
}

// Name implements Regressor.
func (m *MLP) Name() string {
	return fmt.Sprintf("MLP (%d hidden units)", m.hidden)
}

// ---------------------------------------------------------------- bagging

// Bagged is an ensemble of regressors trained on bootstrap resamples of
// the data, predictions averaged — the classic variance-reduction wrapper
// (Breiman's bagging) that the regression-comparison literature applies
// to model trees as well.
type Bagged struct {
	members []Regressor
	name    string
}

// TrainBagged builds an ensemble of n members: each is trained by train()
// on a bootstrap resample of d (drawn with replacement, deterministic for
// a fixed seed).
func TrainBagged(d *dataset.Dataset, n int, seed uint64,
	train func(resample *dataset.Dataset) (Regressor, error),
) (*Bagged, error) {
	if d.Len() == 0 {
		return nil, ErrNoData
	}
	if n < 1 {
		return nil, errors.New("baselines: ensemble size must be >= 1")
	}
	rng := dataset.NewRNG(seed ^ 0x6261676765640a)
	b := &Bagged{}
	for i := 0; i < n; i++ {
		resample := dataset.New(d.Schema)
		for j := 0; j < d.Len(); j++ {
			resample.Samples = append(resample.Samples, d.Samples[rng.Intn(d.Len())])
		}
		m, err := train(resample)
		if err != nil {
			return nil, fmt.Errorf("baselines: training ensemble member %d: %w", i, err)
		}
		b.members = append(b.members, m)
	}
	b.name = fmt.Sprintf("bagged ensemble (%d x %s)", n, b.members[0].Name())
	return b, nil
}

// Predict implements Regressor: the mean of the members' predictions.
func (b *Bagged) Predict(x []float64) float64 {
	var sum float64
	for _, m := range b.members {
		sum += m.Predict(x)
	}
	return sum / float64(len(b.members))
}

// Name implements Regressor.
func (b *Bagged) Name() string { return b.name }
