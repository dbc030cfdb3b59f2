package dataset

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return &Schema{Response: "CPI", Attributes: []string{"A", "B", "C"}}
}

func testDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	d := New(testSchema())
	r := NewRNG(1)
	labels := []string{"alpha", "beta", "gamma"}
	for i := 0; i < n; i++ {
		s := Sample{
			X:     []float64{r.Float64(), r.Float64(), r.Float64()},
			Y:     r.Float64() * 2,
			Label: labels[i%len(labels)],
		}
		if err := d.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestSchemaClone(t *testing.T) {
	s := testSchema()
	c := s.Clone()
	c.Attributes[0] = "Z"
	if s.Attributes[0] != "A" {
		t.Error("Clone shares attribute slice")
	}
}

func TestAppendValidatesWidth(t *testing.T) {
	d := New(testSchema())
	if err := d.Append(Sample{X: []float64{1, 2}}); err == nil {
		t.Error("Append with wrong width should error")
	}
	if err := d.Append(Sample{X: []float64{1, 2, 3}}); err != nil {
		t.Errorf("Append = %v", err)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestAppendRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		s    Sample
	}{
		{"NaN attr", Sample{X: []float64{1, math.NaN(), 3}, Y: 1}},
		{"+Inf attr", Sample{X: []float64{math.Inf(1), 2, 3}, Y: 1}},
		{"-Inf attr", Sample{X: []float64{1, 2, math.Inf(-1)}, Y: 1}},
		{"NaN response", Sample{X: []float64{1, 2, 3}, Y: math.NaN()}},
		{"Inf response", Sample{X: []float64{1, 2, 3}, Y: math.Inf(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(testSchema())
			err := d.Append(tc.s)
			if err == nil {
				t.Fatal("Append accepted a non-finite sample")
			}
			if !errors.Is(err, ErrNonFinite) {
				t.Errorf("error %v is not ErrNonFinite", err)
			}
			if d.Len() != 0 {
				t.Errorf("rejected sample was stored; Len = %d", d.Len())
			}
		})
	}
}

func TestColumnsAndYs(t *testing.T) {
	d := New(testSchema())
	_ = d.Append(Sample{X: []float64{1, 2, 3}, Y: 10, Label: "a"})
	_ = d.Append(Sample{X: []float64{4, 5, 6}, Y: 20, Label: "b"})
	ys := d.Ys()
	if len(ys) != 2 || ys[0] != 10 || ys[1] != 20 {
		t.Errorf("Ys = %v", ys)
	}
	col := d.Column(1)
	if col[0] != 2 || col[1] != 5 {
		t.Errorf("Column(1) = %v", col)
	}
	xs := d.Xs()
	if len(xs) != 2 || xs[1][2] != 6 {
		t.Errorf("Xs = %v", xs)
	}
}

func TestLabelsAndFilter(t *testing.T) {
	d := testDataset(t, 9)
	labels := d.Labels()
	if len(labels) != 3 || labels[0] != "alpha" || labels[1] != "beta" || labels[2] != "gamma" {
		t.Errorf("Labels = %v", labels)
	}
	f := d.FilterLabel("beta")
	if f.Len() != 3 {
		t.Errorf("FilterLabel(beta).Len = %d, want 3", f.Len())
	}
	for _, s := range f.Samples {
		if s.Label != "beta" {
			t.Errorf("filtered sample has label %q", s.Label)
		}
	}
	if d.FilterLabel("nope").Len() != 0 {
		t.Error("FilterLabel of unknown label should be empty")
	}
}

func TestConcat(t *testing.T) {
	d1 := testDataset(t, 4)
	d2 := testDataset(t, 6)
	all, err := d1.Concat(d2)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 10 {
		t.Errorf("Concat len = %d", all.Len())
	}
	other := New(&Schema{Response: "y", Attributes: []string{"only"}})
	if _, err := d1.Concat(other); err == nil {
		t.Error("Concat with mismatched schema should error")
	}
}

func TestSplitFractions(t *testing.T) {
	d := testDataset(t, 1000)
	train, test := d.Split(NewRNG(7), 0.1)
	if train.Len() != 100 {
		t.Errorf("train len = %d, want 100", train.Len())
	}
	if test.Len() != 900 {
		t.Errorf("test len = %d, want 900", test.Len())
	}
	// Deterministic: same seed, same split.
	train2, _ := d.Split(NewRNG(7), 0.1)
	for i := range train.Samples {
		if train.Samples[i].Y != train2.Samples[i].Y {
			t.Fatal("Split not deterministic for equal seeds")
		}
	}
	// Different seed gives a different split (overwhelmingly likely).
	train3, _ := d.Split(NewRNG(8), 0.1)
	same := true
	for i := range train.Samples {
		if train.Samples[i].Y != train3.Samples[i].Y {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical splits")
	}
}

func TestSplitPartitionProperty(t *testing.T) {
	// Every sample appears exactly once across train+test.
	d := testDataset(t, 257)
	train, test := d.Split(NewRNG(3), 0.3)
	if train.Len()+test.Len() != d.Len() {
		t.Fatalf("partition sizes %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	var sum, sumParts float64
	for _, s := range d.Samples {
		sum += s.Y
	}
	for _, s := range train.Samples {
		sumParts += s.Y
	}
	for _, s := range test.Samples {
		sumParts += s.Y
	}
	if math.Abs(sum-sumParts) > 1e-9 {
		t.Errorf("partition lost samples: sum %v vs %v", sum, sumParts)
	}
}

func TestSummary(t *testing.T) {
	d := New(testSchema())
	_ = d.Append(Sample{X: []float64{0, 0, 0}, Y: 1})
	_ = d.Append(Sample{X: []float64{0, 0, 0}, Y: 3})
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 2 || s.N != 2 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	if a.Uint64() == c.Uint64() {
		t.Error("different seeds produced same value (suspicious)")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(7) value %d appeared %d/7000 times", v, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(77)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(123)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("Normal mean = %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("Normal variance = %v, want ~4", variance)
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(1)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Error("forked RNGs produced identical first values")
	}
}

// Property: Perm always returns a permutation for any n and seed.
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8) % 64
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStratifiedSplitPreservesComposition(t *testing.T) {
	d := testDataset(t, 900) // 300 of each label
	train, test := d.StratifiedSplit(NewRNG(5), 0.1)
	if train.Len()+test.Len() != d.Len() {
		t.Fatalf("partition sizes %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	// Every label contributes exactly its stratum share.
	for _, label := range d.Labels() {
		got := train.FilterLabel(label).Len()
		want := int(float64(d.FilterLabel(label).Len()) * 0.1)
		if got != want {
			t.Errorf("label %s train share = %d, want %d", label, got, want)
		}
	}
	// Deterministic.
	train2, _ := d.StratifiedSplit(NewRNG(5), 0.1)
	for i := range train.Samples {
		if train.Samples[i].Y != train2.Samples[i].Y {
			t.Fatal("stratified split not deterministic")
		}
	}
}

func TestStratifiedSplitSingleLabel(t *testing.T) {
	d := New(testSchema())
	r := NewRNG(2)
	for i := 0; i < 40; i++ {
		_ = d.Append(Sample{X: []float64{r.Float64(), 0, 0}, Y: r.Float64(), Label: "only"})
	}
	train, test := d.StratifiedSplit(NewRNG(1), 0.25)
	if train.Len() != 10 || test.Len() != 30 {
		t.Errorf("split = %d/%d, want 10/30", train.Len(), test.Len())
	}
}

func TestAttrSummaries(t *testing.T) {
	d := New(testSchema())
	_ = d.Append(Sample{X: []float64{1, 10, 100}, Y: 0})
	_ = d.Append(Sample{X: []float64{3, 30, 300}, Y: 0})
	sums, err := d.AttrSummaries()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 {
		t.Fatalf("got %d summaries", len(sums))
	}
	if sums[0].Mean != 2 || sums[1].Mean != 20 || sums[2].Mean != 200 {
		t.Errorf("means = %v %v %v", sums[0].Mean, sums[1].Mean, sums[2].Mean)
	}
	if sums[1].Min != 10 || sums[1].Max != 30 {
		t.Errorf("min/max = %v/%v", sums[1].Min, sums[1].Max)
	}
	empty := New(testSchema())
	if _, err := empty.AttrSummaries(); err == nil {
		t.Error("empty dataset should error")
	}
}
