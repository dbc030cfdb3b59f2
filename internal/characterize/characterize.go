// Package characterize applies a trained model tree to benchmark data the
// way the paper's Sections IV-B and V-B do: each sample is classified into
// a leaf linear model, the per-benchmark distribution over leaves forms
// its behaviour profile (Tables II and IV), and the Manhattan distance
// between profiles quantifies benchmark similarity (Table III,
// Equation 4).
package characterize

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"specchar/internal/dataset"
	"specchar/internal/obs"
	"specchar/internal/tables"
)

// Classifier is the model-side dependency of profiling: a trained M5'
// tree that can batch-classify a dataset into its leaf models. The
// compiled batch form of a tree (*mtree.CompiledTree) satisfies it.
type Classifier interface {
	NumLeaves() int
	// ClassifyLeavesCheckedContext returns the 1-based LeafID of every
	// sample, or an error when the dataset does not match the model's
	// schema; a canceled context stops classification at a chunk
	// boundary rather than after the whole suite is classified.
	ClassifyLeavesCheckedContext(ctx context.Context, d *dataset.Dataset) ([]int, error)
}

// Profile is the distribution of one benchmark's samples over the leaf
// linear models of a tree.
type Profile struct {
	Name    string
	Shares  []float64 // Shares[i] is the fraction of samples in leaf LM(i+1)
	N       int       // samples profiled
	MeanCPI float64   // mean response of those samples
}

// ErrEmpty is returned when profiling an empty sample set.
var ErrEmpty = errors.New("characterize: no samples to profile")

// ProfileOf classifies every sample of d through the model and returns
// the leaf distribution.
func ProfileOf(model Classifier, d *dataset.Dataset, name string) (Profile, error) {
	return ProfileOfContext(context.Background(), model, d, name)
}

// ProfileOfContext is ProfileOf with cooperative cancellation: the
// classification pass observes the context, and a canceled context is
// returned as a wrapped ctx.Err().
func ProfileOfContext(ctx context.Context, model Classifier, d *dataset.Dataset, name string) (Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d.Len() == 0 {
		return Profile{}, ErrEmpty
	}
	sctx, span := obs.FromContext(ctx).StartSpan(ctx, "characterize.profile", obs.A("name", name))
	span.SetRows(d.Len())
	defer span.End()
	ctx = sctx
	leafIDs, err := model.ClassifyLeavesCheckedContext(ctx, d)
	if err != nil {
		return Profile{}, fmt.Errorf("characterize: %s: %w", name, err)
	}
	p := Profile{Name: name, Shares: make([]float64, model.NumLeaves()), N: d.Len()}
	var cpiSum float64
	for i, id := range leafIDs {
		p.Shares[id-1]++
		cpiSum += d.Samples[i].Y
	}
	for i := range p.Shares {
		p.Shares[i] /= float64(d.Len())
	}
	p.MeanCPI = cpiSum / float64(d.Len())
	return p, nil
}

// SuiteProfiles profiles every benchmark label in d plus the two summary
// rows the paper's Tables II/IV carry: "Suite" (all samples pooled, i.e.
// instruction-count weighted) and "Average" (unweighted mean of the
// per-benchmark profiles).
func SuiteProfiles(model Classifier, d *dataset.Dataset) ([]Profile, error) {
	return SuiteProfilesContext(context.Background(), model, d)
}

// SuiteProfilesContext is SuiteProfiles with cooperative cancellation:
// the context is checked between benchmark profiles and propagated into
// each classification pass.
func SuiteProfilesContext(ctx context.Context, model Classifier, d *dataset.Dataset) ([]Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	labels := d.Labels()
	if len(labels) == 0 {
		return nil, ErrEmpty
	}
	sctx, span := obs.FromContext(ctx).StartSpan(ctx, "characterize.suite", obs.A("benchmarks", len(labels)))
	span.SetRows(d.Len())
	defer span.End()
	ctx = sctx
	out := make([]Profile, 0, len(labels)+2)
	for _, label := range labels {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("characterize: profiling canceled: %w", err)
		}
		p, err := ProfileOfContext(ctx, model, d.FilterLabel(label), label)
		if err != nil {
			return nil, fmt.Errorf("characterize: %s: %w", label, err)
		}
		out = append(out, p)
	}
	suite, err := ProfileOfContext(ctx, model, d, "Suite")
	if err != nil {
		return nil, err
	}
	avg := Profile{Name: "Average", Shares: make([]float64, model.NumLeaves())}
	var cpiSum float64
	for _, p := range out {
		for i, s := range p.Shares {
			avg.Shares[i] += s
		}
		cpiSum += p.MeanCPI
		avg.N += p.N
	}
	for i := range avg.Shares {
		avg.Shares[i] /= float64(len(out))
	}
	avg.MeanCPI = cpiSum / float64(len(out))
	out = append(out, suite, avg)
	return out, nil
}

// Distance returns the paper's Equation 4: half the L1 (Manhattan)
// distance between two profiles, in [0, 1]. 0 means identical leaf
// distributions; 1 means disjoint.
func Distance(a, b Profile) float64 {
	n := len(a.Shares)
	if len(b.Shares) > n {
		n = len(b.Shares)
	}
	var sum float64
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a.Shares) {
			av = a.Shares[i]
		}
		if i < len(b.Shares) {
			bv = b.Shares[i]
		}
		d := av - bv
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / 2
}

// SimilarityMatrix is the pairwise profile distance matrix of Table III.
type SimilarityMatrix struct {
	Names []string
	D     [][]float64 // D[i][j] = Distance(profiles[i], profiles[j])
}

// Similarity builds the full pairwise distance matrix over the profiles.
func Similarity(profiles []Profile) *SimilarityMatrix {
	m := &SimilarityMatrix{
		Names: make([]string, len(profiles)),
		D:     make([][]float64, len(profiles)),
	}
	for i := range profiles {
		m.Names[i] = profiles[i].Name
		m.D[i] = make([]float64, len(profiles))
	}
	for i := range profiles {
		for j := i + 1; j < len(profiles); j++ {
			d := Distance(profiles[i], profiles[j])
			m.D[i][j] = d
			m.D[j][i] = d
		}
	}
	return m
}

// Pair is one benchmark pair and its distance.
type Pair struct {
	A, B     string
	Distance float64
}

// pairs lists all unordered pairs sorted ascending by distance.
func (m *SimilarityMatrix) pairs() []Pair {
	var out []Pair
	for i := range m.Names {
		for j := i + 1; j < len(m.Names); j++ {
			out = append(out, Pair{m.Names[i], m.Names[j], m.D[i][j]})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Distance < out[b].Distance })
	return out
}

// ClosestPairs returns the k most similar pairs (smallest distance).
func (m *SimilarityMatrix) ClosestPairs(k int) []Pair {
	p := m.pairs()
	if k > len(p) {
		k = len(p)
	}
	return p[:k]
}

// FarthestPairs returns the k most dissimilar pairs (largest distance).
func (m *SimilarityMatrix) FarthestPairs(k int) []Pair {
	p := m.pairs()
	if k > len(p) {
		k = len(p)
	}
	out := make([]Pair, k)
	for i := 0; i < k; i++ {
		out[i] = p[len(p)-1-i]
	}
	return out
}

// RenderDistribution renders profiles in the format of the paper's
// Tables II and IV: one row per benchmark, one column per linear model,
// entries in percent. Shares of at least boldAt (e.g. 0.2 for the paper's
// 20%) are marked with a trailing '*' since plain text has no bold.
func RenderDistribution(profiles []Profile, boldAt float64) string {
	if len(profiles) == 0 {
		return ""
	}
	nLeaves := 0
	for _, p := range profiles {
		if len(p.Shares) > nLeaves {
			nLeaves = len(p.Shares)
		}
	}
	headers := make([]string, 0, nLeaves+2)
	headers = append(headers, "Benchmark")
	for i := 1; i <= nLeaves; i++ {
		headers = append(headers, fmt.Sprintf("LM%d", i))
	}
	headers = append(headers, "CPI")
	t := tables.New(headers...)
	for _, p := range profiles {
		row := make([]string, 0, nLeaves+2)
		row = append(row, p.Name)
		for i := 0; i < nLeaves; i++ {
			share := 0.0
			if i < len(p.Shares) {
				share = p.Shares[i]
			}
			cell := fmt.Sprintf("%.1f", 100*share)
			if share >= boldAt && boldAt > 0 {
				cell += "*"
			}
			row = append(row, cell)
		}
		row = append(row, fmt.Sprintf("%.2f", p.MeanCPI))
		t.AddRow(row...)
	}
	return t.String()
}

// RenderSimilarity renders the distance matrix (in percent, as the paper
// reports Table III) for the named subset; nil names means all.
func (m *SimilarityMatrix) RenderSimilarity(names []string) string {
	idx := make([]int, 0, len(m.Names))
	if names == nil {
		for i := range m.Names {
			idx = append(idx, i)
		}
	} else {
		byName := make(map[string]int, len(m.Names))
		for i, n := range m.Names {
			byName[n] = i
		}
		for _, n := range names {
			if i, ok := byName[n]; ok {
				idx = append(idx, i)
			}
		}
	}
	headers := make([]string, 0, len(idx)+1)
	headers = append(headers, "")
	for _, i := range idx {
		headers = append(headers, shortName(m.Names[i]))
	}
	t := tables.New(headers...)
	for _, i := range idx {
		row := make([]string, 0, len(idx)+1)
		row = append(row, shortName(m.Names[i]))
		for _, j := range idx {
			row = append(row, fmt.Sprintf("%.1f", 100*m.D[i][j]))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// shortName trims the SPEC numeric prefix for column headers
// ("456.hmmer" -> "hmmer").
func shortName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[i+1:]
		}
		if name[i] < '0' || name[i] > '9' {
			break
		}
	}
	return name
}
