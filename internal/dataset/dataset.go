// Package dataset defines the sample container shared by the data
// generator, the model-tree learner, and the analysis code, together with
// deterministic random splitting and CSV/ARFF interchange.
//
// A Sample mirrors one row of the paper's input data: the per-instruction
// densities of the 20 PMU-derived predictor events over a 2M-instruction
// interval, the CPI response, and the benchmark the interval came from.
package dataset

import (
	"errors"
	"fmt"
	"math"

	"specchar/internal/obs"
	"specchar/internal/stats"
)

// Schema names the response and predictor columns of a dataset. All
// datasets flowing through one study must share a Schema (pointer equality
// is not required, but column order is significant).
type Schema struct {
	Response   string   // e.g. "CPI"
	Attributes []string // predictor names, in column order
}

// NumAttrs returns the number of predictor columns.
func (s *Schema) NumAttrs() int { return len(s.Attributes) }

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	return &Schema{
		Response:   s.Response,
		Attributes: append([]string(nil), s.Attributes...),
	}
}

// Sample is one observation interval.
type Sample struct {
	X     []float64 // predictor values, parallel to Schema.Attributes
	Y     float64   // response (CPI)
	Label string    // benchmark the interval was sampled from
}

// Dataset is an ordered collection of samples under a schema.
type Dataset struct {
	Schema  *Schema
	Samples []Sample
}

// New returns an empty dataset over the schema.
func New(schema *Schema) *Dataset {
	return &Dataset{Schema: schema}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// ErrNonFinite is returned when a sample carries a NaN or infinite value.
// Non-finite values are rejected at ingest because they silently corrupt
// everything downstream: NaN breaks the model tree's sort invariants
// (every comparison is false) and poisons regressions and summary
// statistics.
var ErrNonFinite = errors.New("dataset: non-finite value")

// Append adds a sample, validating its width against the schema and
// rejecting non-finite predictor or response values.
func (d *Dataset) Append(s Sample) error {
	if len(s.X) != d.Schema.NumAttrs() {
		return fmt.Errorf("dataset: sample width %d does not match schema width %d",
			len(s.X), d.Schema.NumAttrs())
	}
	for j, v := range s.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: attribute %q is %v", ErrNonFinite, d.Schema.Attributes[j], v)
		}
	}
	if math.IsNaN(s.Y) || math.IsInf(s.Y, 0) {
		return fmt.Errorf("%w: response %q is %v", ErrNonFinite, d.Schema.Response, s.Y)
	}
	d.Samples = append(d.Samples, s)
	return nil
}

// Ys returns the response column.
func (d *Dataset) Ys() []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.Y
	}
	return out
}

// Xs returns the predictor rows. The returned slices alias the dataset's
// storage; callers must not mutate them.
func (d *Dataset) Xs() [][]float64 {
	out := make([][]float64, len(d.Samples))
	for i := range d.Samples {
		out[i] = d.Samples[i].X
	}
	return out
}

// Columns returns a column-major (SoA) mirror of the predictor matrix:
// Columns()[j][i] is attribute j of sample i. All columns are slices of
// one contiguous float64 slab, so a consumer scanning a single attribute
// walks sequential memory instead of chasing per-row slice pointers —
// the access pattern the model tree's presorted split search is built
// around. The mirror is a copy: it does not alias the dataset's storage
// and does not observe later appends.
func (d *Dataset) Columns() [][]float64 {
	nAttrs := d.Schema.NumAttrs()
	n := len(d.Samples)
	slab := make([]float64, nAttrs*n)
	out := make([][]float64, nAttrs)
	for j := range out {
		out[j] = slab[j*n : (j+1)*n : (j+1)*n]
	}
	for i := range d.Samples {
		for j, v := range d.Samples[i].X {
			out[j][i] = v
		}
	}
	return out
}

// Column returns a copy of predictor column j.
func (d *Dataset) Column(j int) []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.X[j]
	}
	return out
}

// Labels returns the distinct labels in first-appearance order.
func (d *Dataset) Labels() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range d.Samples {
		if !seen[s.Label] {
			seen[s.Label] = true
			out = append(out, s.Label)
		}
	}
	return out
}

// Shape describes the dataset for a run manifest: sample count, schema
// width, distinct-label count and the response name, under the given
// dataset name. Everything in the shape is deterministic.
func (d *Dataset) Shape(name string) obs.DatasetShape {
	return obs.DatasetShape{
		Name:     name,
		Samples:  d.Len(),
		Attrs:    d.Schema.NumAttrs(),
		Labels:   len(d.Labels()),
		Response: d.Schema.Response,
	}
}

// FilterLabel returns a dataset view containing only samples with the
// label. The samples are shared, not copied.
func (d *Dataset) FilterLabel(label string) *Dataset {
	out := New(d.Schema)
	for _, s := range d.Samples {
		if s.Label == label {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// Concat returns a new dataset holding the samples of d followed by those
// of others. All datasets must have the same schema width.
func (d *Dataset) Concat(others ...*Dataset) (*Dataset, error) {
	out := New(d.Schema)
	out.Samples = append(out.Samples, d.Samples...)
	for _, o := range others {
		if o.Schema.NumAttrs() != d.Schema.NumAttrs() {
			return nil, errors.New("dataset: cannot concat datasets with different schema widths")
		}
		out.Samples = append(out.Samples, o.Samples...)
	}
	return out, nil
}

// Summary describes the response column.
func (d *Dataset) Summary() (stats.Summary, error) {
	return stats.Describe(d.Ys())
}

// Split partitions the dataset into a training set holding approximately
// fraction of the samples and a test set holding the rest, selected by a
// deterministic shuffle of the given RNG. This mirrors the paper's "10%
// randomly selected training set" protocol (Section VI-A2).
func (d *Dataset) Split(rng *RNG, fraction float64) (train, test *Dataset) {
	idx := rng.Perm(len(d.Samples))
	cut := int(float64(len(d.Samples)) * fraction)
	train, test = New(d.Schema), New(d.Schema)
	for i, j := range idx {
		if i < cut {
			train.Samples = append(train.Samples, d.Samples[j])
		} else {
			test.Samples = append(test.Samples, d.Samples[j])
		}
	}
	return train, test
}

// StratifiedSplit partitions like Split but samples the fraction within
// each label independently, so the training set preserves the suite's
// benchmark composition. With millions of samples (the paper's scale) a
// plain random split is implicitly stratified; at simulation scale the
// explicit version avoids composition skew between train and test.
func (d *Dataset) StratifiedSplit(rng *RNG, fraction float64) (train, test *Dataset) {
	train, test = New(d.Schema), New(d.Schema)
	for _, label := range d.Labels() {
		sub := d.FilterLabel(label)
		tr, te := sub.Split(rng, fraction)
		train.Samples = append(train.Samples, tr.Samples...)
		test.Samples = append(test.Samples, te.Samples...)
	}
	return train, test
}

// AttrSummaries returns per-attribute descriptive statistics, in schema
// order — the inventory view of a dataset's event densities.
func (d *Dataset) AttrSummaries() ([]stats.Summary, error) {
	if d.Len() == 0 {
		return nil, stats.ErrEmpty
	}
	out := make([]stats.Summary, d.Schema.NumAttrs())
	for j := range out {
		s, err := stats.Describe(d.Column(j))
		if err != nil {
			return nil, err
		}
		out[j] = s
	}
	return out, nil
}
