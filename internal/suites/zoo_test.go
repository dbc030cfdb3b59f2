package suites

import (
	"testing"

	"specchar/internal/pmu"
)

func TestCPU2017SuiteValid(t *testing.T) {
	s := CPU2017()
	if err := s.Validate(); err != nil {
		t.Fatalf("CPU2017 invalid: %v", err)
	}
	if len(s.Benchmarks) != 16 {
		t.Errorf("CPU2017 has %d benchmarks, want 16", len(s.Benchmarks))
	}
	for _, name := range []string{"505.mcf_r", "523.xalancbmk_r", "503.bwaves_r", "548.exchange2_r"} {
		if !hasBenchmark(s, name) {
			t.Errorf("CPU2017 missing %s", name)
		}
	}
}

func TestCPU2026SuiteValid(t *testing.T) {
	s := CPU2026()
	if err := s.Validate(); err != nil {
		t.Fatalf("CPU2026 invalid: %v", err)
	}
	if len(s.Benchmarks) != 12 {
		t.Errorf("CPU2026 has %d benchmarks, want 12", len(s.Benchmarks))
	}
	for _, name := range []string{"701.gemm_infer", "702.tokenflow", "703.graphmine", "704.vecdb"} {
		if !hasBenchmark(s, name) {
			t.Errorf("CPU2026 missing %s", name)
		}
	}
}

// generations is the CPU suite ladder in lineage order, as the facade's
// cross-generation matrix (matrixreport.go) lays it out.
func generations() []*Suite {
	return []*Suite{CPU2000(), CPU2006(), CPU2017(), CPU2026()}
}

// TestGenerationsLineageOrder pins the names the matrix report's ladder
// labels its rows and columns with; the report fills the CPU2006 slot with
// the study's own data under the literal name "SPEC CPU2006".
func TestGenerationsLineageOrder(t *testing.T) {
	want := []string{"SPEC CPU2000", "SPEC CPU2006", "SPEC CPU2017", "SPEC CPU2026"}
	for i, s := range generations() {
		if s.Name != want[i] {
			t.Errorf("generation %d = %s, want %s", i, s.Name, want[i])
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
}

// TestGenerationCalibrationOrdering pins the zoo's calibration invariant
// (doc.go): on the fixed simulated machine, the generation-sensitive mean
// event densities — L2 misses, last-level DTLB misses, SIMD retirement —
// and mean CPI each increase strictly from CPU2000 to CPU2026. This is
// the "plausibly ordered across generations" property the cross-suite
// characterization papers report for the real suites, and it is what the
// transfer-matrix experiment's distance structure rests on.
func TestGenerationCalibrationOrdering(t *testing.T) {
	opts := GenOptions{
		SamplesPerBenchmark: 20,
		OpsPerWindow:        512,
		WarmupOps:           4000,
		Seed:                20080419,
		Multiplex:           true,
		Parallelism:         4,
	}
	type suiteMeans struct {
		name                   string
		l2, dtlb, simd, cpi, n float64
	}
	var ms []suiteMeans
	for _, s := range generations() {
		d, err := Generate(s, opts)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		sums, err := d.AttrSummaries()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := d.Summary()
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, suiteMeans{
			name: s.Name,
			l2:   sums[pmu.L2Miss].Mean,
			dtlb: sums[pmu.DtlbMiss].Mean,
			simd: sums[pmu.SIMD].Mean,
			cpi:  resp.Mean,
			n:    float64(d.Len()),
		})
	}
	for _, m := range ms {
		t.Logf("%-14s n=%4.0f  L2Miss=%.6f  DtlbMiss=%.6f  SIMD=%.4f  CPI=%.4f",
			m.name, m.n, m.l2, m.dtlb, m.simd, m.cpi)
	}
	for i := 1; i < len(ms); i++ {
		prev, cur := ms[i-1], ms[i]
		if !(cur.l2 > prev.l2) {
			t.Errorf("mean L2Miss not increasing: %s %.6f -> %s %.6f", prev.name, prev.l2, cur.name, cur.l2)
		}
		if !(cur.dtlb > prev.dtlb) {
			t.Errorf("mean DtlbMiss not increasing: %s %.6f -> %s %.6f", prev.name, prev.dtlb, cur.name, cur.dtlb)
		}
		if !(cur.simd > prev.simd) {
			t.Errorf("mean SIMD not increasing: %s %.4f -> %s %.4f", prev.name, prev.simd, cur.name, cur.simd)
		}
		if !(cur.cpi > prev.cpi) {
			t.Errorf("mean CPI not increasing: %s %.4f -> %s %.4f", prev.name, prev.cpi, cur.name, cur.cpi)
		}
	}
}
