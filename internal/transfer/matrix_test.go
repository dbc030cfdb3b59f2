package transfer

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specchar/internal/mtree"
)

var updateMatrixGolden = flag.Bool("update", false, "rewrite matrix golden fixtures")

// matrixZoo builds three synthetic "suites" drawn from the piecewise
// process in makeRegime: A and B share a law (B barely shifted), C is far
// away — so the 3×3 matrix has transferable diagonals, a transferable
// A↔B neighbourhood, and failing C rows/columns.
func matrixZoo() []MatrixSuite {
	return []MatrixSuite{
		{Name: "SPEC A", Data: makeRegime(1500, 101, 0)},
		{Name: "SPEC B", Data: makeRegime(1500, 202, 0.04)},
		{Name: "SPEC C", Data: makeRegime(1500, 303, 1.5)},
	}
}

func TestMatrixAssessVerdicts(t *testing.T) {
	m, err := MatrixAssess(matrixZoo(), MatrixOptions{SplitSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Suites) != 3 || len(m.Cells) != 3 || len(m.Cells[0]) != 3 {
		t.Fatalf("matrix shape = %d suites, %d rows", len(m.Suites), len(m.Cells))
	}
	for i, s := range m.Suites {
		if d := m.Cells[i][i]; !d.Transferable {
			t.Errorf("diagonal %d (%s) not transferable: %+v", i, s, d)
		}
	}
	const a, b, c = 0, 1, 2 // "SPEC A", "SPEC B", "SPEC C" in matrixZoo order
	if ab := m.Cells[a][b]; !ab.Transferable {
		t.Errorf("A -> B (tiny shift) should transfer: C=%v MAE=%v hyp=%v",
			ab.Correlation, ab.MAE, ab.HypothesisOK)
	}
	for _, pair := range [][2]int{{a, c}, {c, a}} {
		cell := m.Cells[pair[0]][pair[1]]
		if cell.Transferable {
			t.Errorf("%s -> %s (shift 1.5) should not transfer", m.Suites[pair[0]], m.Suites[pair[1]])
		}
		if cell.HypothesisOK {
			t.Errorf("%s -> %s: sample t-test should reject a 1.5 CPI shift", m.Suites[pair[0]], m.Suites[pair[1]])
		}
	}
	if m.Cells[a][c].Assessment == nil {
		t.Error("cell is missing its full Assessment")
	}
}

func TestMatrixAssessValidation(t *testing.T) {
	zoo := matrixZoo()
	if _, err := MatrixAssess(zoo[:1], MatrixOptions{}); err == nil {
		t.Error("single suite should error")
	}
	bad := []MatrixSuite{zoo[0], {Name: "", Data: zoo[1].Data}}
	if _, err := MatrixAssess(bad, MatrixOptions{}); err == nil {
		t.Error("unnamed suite should error")
	}
	bad = []MatrixSuite{zoo[0], {Name: "X", Data: nil}}
	if _, err := MatrixAssess(bad, MatrixOptions{}); err == nil {
		t.Error("nil dataset should error")
	}
	bad = []MatrixSuite{zoo[0], zoo[0]}
	if _, err := MatrixAssess(bad, MatrixOptions{}); err == nil {
		t.Error("duplicate suite names should error")
	}
	tiny := []MatrixSuite{
		{Name: "T1", Data: makeRegime(12, 1, 0)},
		{Name: "T2", Data: makeRegime(12, 2, 0)},
	}
	if _, err := MatrixAssess(tiny, MatrixOptions{TrainFraction: 0.01}); err == nil {
		t.Error("fraction leaving <2 train samples should error")
	}
}

func TestMatrixAssessDefaults(t *testing.T) {
	m, err := MatrixAssess(matrixZoo()[:2], MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainFraction != 0.10 {
		t.Errorf("default train fraction = %v", m.TrainFraction)
	}
	if m.Alpha != 0.05 {
		t.Errorf("default alpha = %v", m.Alpha)
	}
	if m.Thresholds.MinCorrelation != 0.85 || m.Thresholds.MaxMAE != 0.15 {
		t.Errorf("default thresholds = %+v", m.Thresholds)
	}
}

// TestMatrixDeterminismAcrossWorkers pins the determinism contract: the
// same zoo and seed must render byte-identical artifacts whether the
// cells run serially or eight at a time.
func TestMatrixDeterminismAcrossWorkers(t *testing.T) {
	render := func(workers int) (json, md, svg []byte) {
		m, err := MatrixAssess(matrixZoo(), MatrixOptions{SplitSeed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), []byte(m.RenderMarkdown()), []byte(m.RenderSVG())
	}
	j1, m1, s1 := render(1)
	j8, m8, s8 := render(8)
	if !bytes.Equal(j1, j8) {
		t.Error("JSON differs between workers=1 and workers=8")
	}
	if !bytes.Equal(m1, m8) {
		t.Error("markdown differs between workers=1 and workers=8")
	}
	if !bytes.Equal(s1, s8) {
		t.Error("SVG differs between workers=1 and workers=8")
	}
}

// TestMatrixRenderGolden pins the exact rendered markdown and SVG bytes
// for a fixed seed. A diff means either rendering or the assessment
// pipeline changed; if intentional, regenerate with -update.
func TestMatrixRenderGolden(t *testing.T) {
	m, err := MatrixAssess(matrixZoo(), MatrixOptions{SplitSeed: 7, Tree: mtree.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	goldens := []struct {
		file string
		got  string
	}{
		{"golden_matrix.md", m.RenderMarkdown()},
		{"golden_matrix.svg", m.RenderSVG()},
	}
	for _, g := range goldens {
		path := filepath.Join("testdata", g.file)
		if *updateMatrixGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture (regenerate with -update): %v", err)
		}
		if !bytes.Equal(want, []byte(g.got)) {
			t.Errorf("%s differs from golden fixture; if the change is intentional, rerun with -update", g.file)
		}
	}
}

func TestMatrixRenderContent(t *testing.T) {
	m, err := MatrixAssess(matrixZoo(), MatrixOptions{SplitSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	md := m.RenderMarkdown()
	for _, want := range []string{"# Cross-generation transfer matrix",
		"## Acceptance grid", "## Hypothesis-test detail", "| **A** |", "✓", "✗"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	svg := m.RenderSVG()
	for _, want := range []string{"<svg", "</svg>", "aria-label",
		heatRamp[0], heatRamp[len(heatRamp)-1]} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	txt := m.RenderText()
	if !strings.Contains(txt, "train \\ test") || !strings.Contains(txt, "ok ") || !strings.Contains(txt, "NO ") {
		t.Errorf("text grid incomplete:\n%s", txt)
	}
}

func TestHeatColorClamps(t *testing.T) {
	if fill, dark := heatColor(-2); fill != heatRamp[0] || dark {
		t.Errorf("negative C: %s dark=%v", fill, dark)
	}
	nan := 0.0
	nan /= nan
	if fill, _ := heatColor(nan); fill != heatRamp[0] {
		t.Errorf("NaN C: %s", fill)
	}
	if fill, dark := heatColor(2); fill != heatRamp[len(heatRamp)-1] || !dark {
		t.Errorf("C>1: %s dark=%v", fill, dark)
	}
}
