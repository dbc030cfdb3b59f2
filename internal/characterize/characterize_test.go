package characterize

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"specchar/internal/dataset"
	"specchar/internal/mtree"
)

// buildFixture creates a dataset with two labeled behaviour regimes and a
// tree that separates them, giving predictable classification results.
func buildFixture(t *testing.T) (*mtree.CompiledTree, *dataset.Dataset) {
	t.Helper()
	schema := &dataset.Schema{Response: "CPI", Attributes: []string{"a", "b"}}
	d := dataset.New(schema)
	r := dataset.NewRNG(1)
	for i := 0; i < 600; i++ {
		// "low" benchmark lives at a < 0.5, "high" at a > 0.5;
		// "mixed" straddles both.
		var label string
		var a float64
		switch i % 3 {
		case 0:
			label, a = "low", r.Float64()*0.5
		case 1:
			label, a = "high", 0.5+r.Float64()*0.5
		default:
			label, a = "mixed", r.Float64()
		}
		y := 1.0
		if a > 0.5 {
			y = 3.0
		}
		y += (r.Float64() - 0.5) * 0.1
		_ = d.Append(dataset.Sample{X: []float64{a, r.Float64()}, Y: y, Label: label})
	}
	tree, err := mtree.Build(d, mtree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return ctree, d
}

func TestProfileOfSeparatesRegimes(t *testing.T) {
	tree, d := buildFixture(t)
	low, err := ProfileOf(tree, d.FilterLabel("low"), "low")
	if err != nil {
		t.Fatal(err)
	}
	high, err := ProfileOf(tree, d.FilterLabel("high"), "high")
	if err != nil {
		t.Fatal(err)
	}
	// Each pure benchmark should be dominated by one leaf population, and
	// they should not share it.
	lShare, hShare := slices.Max(low.Shares), slices.Max(high.Shares)
	lLeaf, hLeaf := slices.Index(low.Shares, lShare), slices.Index(high.Shares, hShare)
	if lShare < 0.5 || hShare < 0.5 {
		t.Errorf("dominant shares too small: low %.2f high %.2f", lShare, hShare)
	}
	if lLeaf == hLeaf {
		t.Errorf("low and high share dominant leaf %d", lLeaf)
	}
	// Shares sum to 1.
	var sum float64
	for _, s := range low.Shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if low.N != d.FilterLabel("low").Len() {
		t.Errorf("N = %d", low.N)
	}
}

func TestProfileOfEmpty(t *testing.T) {
	tree, d := buildFixture(t)
	if _, err := ProfileOf(tree, d.FilterLabel("missing"), "x"); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestSuiteProfiles(t *testing.T) {
	tree, d := buildFixture(t)
	profiles, err := SuiteProfiles(tree, d)
	if err != nil {
		t.Fatal(err)
	}
	// 3 labels + Suite + Average.
	if len(profiles) != 5 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	names := map[string]bool{}
	for _, p := range profiles {
		names[p.Name] = true
	}
	if !names["Suite"] || !names["Average"] || !names["low"] {
		t.Errorf("missing expected profiles: %v", names)
	}
	// The Suite profile must equal the pooled classification.
	suite := profiles[3]
	pooled, _ := ProfileOf(tree, d, "Suite")
	for i := range suite.Shares {
		if math.Abs(suite.Shares[i]-pooled.Shares[i]) > 1e-12 {
			t.Fatal("Suite row does not match pooled profile")
		}
	}
	// The Average row must be the unweighted mean of benchmark rows.
	avg := profiles[4]
	for i := range avg.Shares {
		want := (profiles[0].Shares[i] + profiles[1].Shares[i] + profiles[2].Shares[i]) / 3
		if math.Abs(avg.Shares[i]-want) > 1e-12 {
			t.Fatalf("Average share %d = %v, want %v", i, avg.Shares[i], want)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	tree, d := buildFixture(t)
	low, _ := ProfileOf(tree, d.FilterLabel("low"), "low")
	high, _ := ProfileOf(tree, d.FilterLabel("high"), "high")
	mixed, _ := ProfileOf(tree, d.FilterLabel("mixed"), "mixed")
	// Self distance 0.
	if Distance(low, low) != 0 {
		t.Error("self distance != 0")
	}
	// Symmetry.
	if Distance(low, high) != Distance(high, low) {
		t.Error("distance not symmetric")
	}
	// Disjoint regimes are maximally distant.
	if d := Distance(low, high); d < 0.9 {
		t.Errorf("low vs high distance = %v, want near 1", d)
	}
	// The mixed benchmark is closer to each than they are to each other.
	if Distance(low, mixed) >= Distance(low, high) {
		t.Error("mixed should be closer to low than high is")
	}
	// Range.
	for _, dd := range []float64{Distance(low, high), Distance(low, mixed)} {
		if dd < 0 || dd > 1 {
			t.Errorf("distance %v out of [0,1]", dd)
		}
	}
}

func TestDistanceDifferentLengths(t *testing.T) {
	a := Profile{Shares: []float64{1}}
	b := Profile{Shares: []float64{0, 1}}
	if got := Distance(a, b); got != 1 {
		t.Errorf("distance = %v, want 1", got)
	}
}

func TestSimilarityMatrix(t *testing.T) {
	tree, d := buildFixture(t)
	profiles, _ := SuiteProfiles(tree, d)
	bench := profiles[:3]
	m := Similarity(bench)
	if len(m.Names) != 3 {
		t.Fatalf("names = %v", m.Names)
	}
	for i := range m.D {
		if m.D[i][i] != 0 {
			t.Error("diagonal not zero")
		}
		for j := range m.D {
			if m.D[i][j] != m.D[j][i] {
				t.Error("matrix not symmetric")
			}
		}
	}
	closest := m.ClosestPairs(1)
	farthest := m.FarthestPairs(1)
	if len(closest) != 1 || len(farthest) != 1 {
		t.Fatal("pair extraction failed")
	}
	if closest[0].Distance > farthest[0].Distance {
		t.Error("closest pair farther than farthest pair")
	}
	// The farthest pair must be low/high.
	fp := farthest[0]
	if !(fp.A == "low" && fp.B == "high" || fp.A == "high" && fp.B == "low") {
		t.Errorf("farthest pair = %v", fp)
	}
	// Requesting more pairs than exist clamps.
	if got := m.ClosestPairs(100); len(got) != 3 {
		t.Errorf("ClosestPairs(100) = %d pairs", len(got))
	}
}

func TestRenderDistribution(t *testing.T) {
	tree, d := buildFixture(t)
	profiles, _ := SuiteProfiles(tree, d)
	out := RenderDistribution(profiles, 0.2)
	if !strings.Contains(out, "Benchmark") || !strings.Contains(out, "LM1") {
		t.Errorf("render missing headers:\n%s", out)
	}
	if !strings.Contains(out, "Suite") || !strings.Contains(out, "Average") {
		t.Errorf("render missing summary rows:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("no starred (>=20%%) entries:\n%s", out)
	}
	if RenderDistribution(nil, 0.2) != "" {
		t.Error("empty profile list should render empty")
	}
}

func TestRenderSimilarity(t *testing.T) {
	tree, d := buildFixture(t)
	profiles, _ := SuiteProfiles(tree, d)
	m := Similarity(profiles[:3])
	out := m.RenderSimilarity(nil)
	if !strings.Contains(out, "low") || !strings.Contains(out, "0.0") {
		t.Errorf("similarity render:\n%s", out)
	}
	sub := m.RenderSimilarity([]string{"low", "high", "not-present"})
	if strings.Contains(sub, "mixed") {
		t.Errorf("subset render leaked extra benchmark:\n%s", sub)
	}
}

func TestShortName(t *testing.T) {
	cases := map[string]string{
		"456.hmmer": "hmmer",
		"Suite":     "Suite",
		"429.mcf":   "mcf",
		"no-dot":    "no-dot",
	}
	for in, want := range cases {
		if got := shortName(in); got != want {
			t.Errorf("shortName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: distance is a bounded semimetric over random share vectors.
func TestDistancePropertyQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 6 {
			return true
		}
		norm := func(xs []float64) []float64 {
			var sum float64
			out := make([]float64, len(xs))
			for i, x := range xs {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					x = 0
				}
				out[i] = math.Abs(math.Mod(x, 10))
				sum += out[i]
			}
			if sum == 0 {
				out[0], sum = 1, 1
			}
			for i := range out {
				out[i] /= sum
			}
			return out
		}
		half := len(raw) / 2
		a := Profile{Shares: norm(raw[:half])}
		b := Profile{Shares: norm(raw[half : 2*half])}
		dab := Distance(a, b)
		return dab >= -1e-12 && dab <= 1+1e-9 &&
			math.Abs(Distance(a, b)-Distance(b, a)) < 1e-12 &&
			Distance(a, a) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
