package specchar

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"specchar/internal/characterize"
	"specchar/internal/mtree"
	"specchar/internal/pmu"
)

// The full-scale study is expensive (tens of seconds), so all integration
// tests share one instance.
var (
	studyOnce sync.Once
	study     *Study
	studyErr  error
)

func fullStudy(t *testing.T) *Study {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale study skipped in -short mode")
	}
	studyOnce.Do(func() {
		study, studyErr = NewStudy(DefaultConfig())
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study
}

func TestStudyShapes(t *testing.T) {
	s := fullStudy(t)
	if got := len(s.CPU.Labels()); got != 29 {
		t.Errorf("CPU2006 labels = %d, want 29", got)
	}
	if got := len(s.OMP.Labels()); got != 11 {
		t.Errorf("OMP2001 labels = %d, want 11", got)
	}
	if s.CPUTrain.Len()+s.CPUTest.Len() != s.CPU.Len() {
		t.Error("CPU split does not partition")
	}
	frac := float64(s.CPUTrain.Len()) / float64(s.CPU.Len())
	if math.Abs(frac-0.10) > 0.02 {
		t.Errorf("train fraction = %v, want ~0.10", frac)
	}
	if s.CPUTree.NumLeaves() < 10 || s.CPUTree.NumLeaves() > 150 {
		t.Errorf("CPU tree has %d leaves, outside plausible range", s.CPUTree.NumLeaves())
	}
	if s.OMPTree.NumLeaves() < 8 || s.OMPTree.NumLeaves() > 120 {
		t.Errorf("OMP tree has %d leaves", s.OMPTree.NumLeaves())
	}
}

// TestSuiteCPIRegime checks the suites sit in the CPI regime the paper
// reports (CPU2006 mean 0.96, OMP2001 mean 1.27 on their platform; the
// simulated platform lands in the same neighbourhood).
func TestSuiteCPIRegime(t *testing.T) {
	s := fullStudy(t)
	cpu, err := s.CPU.Summary()
	if err != nil {
		t.Fatal(err)
	}
	omp, err := s.OMP.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Mean < 0.7 || cpu.Mean > 2.2 {
		t.Errorf("CPU2006 mean CPI = %v, outside paper regime", cpu.Mean)
	}
	if omp.Mean < 0.7 || omp.Mean > 2.2 {
		t.Errorf("OMP2001 mean CPI = %v, outside paper regime", omp.Mean)
	}
	if cpu.Min < 0.25 || cpu.Max > 12 {
		t.Errorf("CPU2006 CPI range [%v, %v] implausible", cpu.Min, cpu.Max)
	}
}

// TestCPU2006RootIsTranslationPressure reproduces the paper's headline for
// Figure 1: DTLB misses are the most discriminating performance factor for
// SPEC CPU2006. PageWalk is accepted as equivalent — each DTLB miss
// triggers a walk, so the two events are near-duplicates (the paper itself
// notes they should be considered together).
func TestCPU2006RootIsTranslationPressure(t *testing.T) {
	s := fullStudy(t)
	root := s.CPUTree.Root
	if root.IsLeaf() {
		t.Fatal("CPU tree did not split")
	}
	name := s.CPU.Schema.Attributes[root.Attr]
	if name != "DtlbMiss" && name != "PageWalk" {
		t.Errorf("CPU2006 root split = %s, want DtlbMiss/PageWalk", name)
	}
}

// TestOMP2001RootIsOverlapBlocks reproduces the paper's headline for
// Figure 2: loads blocked by overlapped stores dominate SPEC OMP2001.
func TestOMP2001RootIsOverlapBlocks(t *testing.T) {
	s := fullStudy(t)
	root := s.OMPTree.Root
	if root.IsLeaf() {
		t.Fatal("OMP tree did not split")
	}
	name := s.OMP.Schema.Attributes[root.Attr]
	if name != "LdBlkOlp" {
		t.Errorf("OMP2001 root split = %s, want LdBlkOlp", name)
	}
}

// TestCPULowCPICluster reproduces the LM1 phenomenon: the low side of the
// CPU2006 root holds a large population with a far-below-average CPI
// (paper: 45.28% of samples at CPI 0.6 vs suite 0.96).
func TestCPULowCPICluster(t *testing.T) {
	s := fullStudy(t)
	root := s.CPUTree.Root
	suiteMean, _ := s.CPU.Summary()
	// The paper's LM1 cluster (45.28% of samples at CPI 0.6 vs suite
	// 0.96) must appear within the top two split levels: a subtree
	// holding 30-70% of samples at well below the suite mean.
	found := false
	for _, n := range topNodes(root, 2) {
		share := float64(n.N) / float64(root.N)
		if share >= 0.30 && share <= 0.70 && n.MeanY < suiteMean.Mean*0.8 {
			found = true
		}
	}
	if !found {
		t.Errorf("no large low-CPI cluster within two split levels (suite mean %.2f):\n%s",
			suiteMean.Mean, s.CPUTree.Render())
	}
}

// topNodes collects the nodes reachable within depth split levels of n
// (excluding n itself).
func topNodes(n *mtree.Node, depth int) []*mtree.Node {
	if depth == 0 || n.IsLeaf() {
		return nil
	}
	out := []*mtree.Node{n.Left, n.Right}
	out = append(out, topNodes(n.Left, depth-1)...)
	out = append(out, topNodes(n.Right, depth-1)...)
	return out
}

// TestTreesAreDissimilar reproduces the observation that the two suites'
// trees share few top-level split variables.
func TestTreesAreDissimilar(t *testing.T) {
	s := fullStudy(t)
	topK := func(attrs []int, k int) map[int]bool {
		out := make(map[int]bool)
		for i, a := range attrs {
			if i >= k {
				break
			}
			out[a] = true
		}
		return out
	}
	cpuTop := topK(s.CPUTree.SplitAttributes(), 3)
	ompTop := topK(s.OMPTree.SplitAttributes(), 3)
	shared := 0
	for a := range cpuTop {
		if ompTop[a] {
			shared++
		}
	}
	if shared == 3 {
		t.Error("the suites' top-3 split variables are identical; expected divergence")
	}
	// The OMP root variable must not be a CPU top-3 factor.
	if cpuTop[int(pmu.LdBlkOlp)] {
		t.Error("LdBlkOlp in CPU2006 top-3 splits; suites not differentiated")
	}
}

// TestComputeBenchmarkSimilarity reproduces Table III's key pairs: the
// cache-resident HPC benchmarks are mutually close, and mcf is far from
// everything.
func TestComputeBenchmarkSimilarity(t *testing.T) {
	s := fullStudy(t)
	profiles, err := characterize.SuiteProfiles(s.CPUTreeCompiled, s.CPU)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]characterize.Profile{}
	for _, p := range profiles {
		byName[p.Name] = p
	}
	d := func(a, b string) float64 {
		return characterize.Distance(byName[a], byName[b])
	}
	// Paper: hmmer-namd 1.6%, gromacs-namd 2.0%, calculix-dealII 2.8%.
	for _, pair := range [][2]string{
		{"456.hmmer", "444.namd"},
		{"435.gromacs", "444.namd"},
		{"454.calculix", "447.dealII"},
	} {
		if got := d(pair[0], pair[1]); got > 0.30 {
			t.Errorf("distance(%s, %s) = %.2f, want small", pair[0], pair[1], got)
		}
	}
	// Paper: mcf-namd 97.7%, mcf-GemsFDTD 93.6%.
	for _, pair := range [][2]string{
		{"429.mcf", "444.namd"},
		{"429.mcf", "456.hmmer"},
	} {
		if got := d(pair[0], pair[1]); got < 0.60 {
			t.Errorf("distance(%s, %s) = %.2f, want large", pair[0], pair[1], got)
		}
	}
	// Similar pairs must be far closer than the dissimilar ones.
	if d("456.hmmer", "444.namd") >= d("429.mcf", "444.namd") {
		t.Error("similarity ordering inverted")
	}
}

// TestSphinxSplitLoadSignature: sphinx3 is the only CPU2006 workload with
// heavy cache-line-split loads (the paper's LM18 discussion).
func TestSphinxSplitLoadSignature(t *testing.T) {
	s := fullStudy(t)
	j := slices.Index(s.CPU.Schema.Attributes, "SplitLoad")
	meanSplit := func(label string) float64 {
		sub := s.CPU.FilterLabel(label)
		var sum float64
		for _, smp := range sub.Samples {
			sum += smp.X[j]
		}
		return sum / float64(sub.Len())
	}
	sphinx := meanSplit("482.sphinx3")
	for _, label := range s.CPU.Labels() {
		if label == "482.sphinx3" {
			continue
		}
		if other := meanSplit(label); other >= sphinx/2 {
			t.Errorf("%s split-load density %.4f rivals sphinx3's %.4f", label, other, sphinx)
		}
	}
}

// TestTransferVerdicts reproduces the paper's four Section VI findings.
func TestTransferVerdicts(t *testing.T) {
	s := fullStudy(t)
	want := map[string]bool{
		"cpu->cpu": true,
		"cpu->omp": false,
		"omp->omp": true,
		"omp->cpu": false,
	}
	for dir, expect := range want {
		a, err := s.AssessTransfer(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Transferable(); got != expect {
			t.Errorf("%s transferable = %v, want %v\n%s", dir, got, expect, a)
		}
	}
	// The self-transfer metrics must be strong and the cross-transfer
	// metrics weak, as in the paper's C=0.92/0.43, MAE=0.10/0.37.
	self, _ := s.AssessTransfer("cpu->cpu")
	cross, _ := s.AssessTransfer("cpu->omp")
	if self.Metrics.Correlation < 0.9 {
		t.Errorf("self C = %v, want > 0.9", self.Metrics.Correlation)
	}
	if cross.Metrics.Correlation > 0.7 {
		t.Errorf("cross C = %v, want well below self", cross.Metrics.Correlation)
	}
	if cross.Metrics.MAE < 2*self.Metrics.MAE {
		t.Errorf("cross MAE %v not clearly above self MAE %v", cross.Metrics.MAE, self.Metrics.MAE)
	}
	if _, err := s.AssessTransfer("bogus"); err == nil {
		t.Error("unknown direction should error")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	s := fullStudy(t)
	for _, id := range Experiments() {
		out, err := s.Run(id)
		if err != nil {
			t.Errorf("experiment %s: %v", id, err)
			continue
		}
		if len(out) < 50 {
			t.Errorf("experiment %s output suspiciously short: %q", id, out)
		}
	}
	if _, err := s.Run("nonsense"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestTable1Static(t *testing.T) {
	out := Table1()
	for _, want := range []string{"CPI", "DtlbMiss", "LOAD_BLOCK.OVERLAP_STORE", "SIMD_INST_RETIRED.ANY"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestQuickConfigStudy(t *testing.T) {
	// The quick configuration exercises the full pipeline end to end in
	// about a second; structural assertions are looser.
	s, err := NewStudy(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.CPU.Len() == 0 || s.OMP.Len() == 0 {
		t.Fatal("quick study generated no data")
	}
	if s.CPUTree == nil || s.OMPModel == nil {
		t.Fatal("quick study missing trees")
	}
	if _, err := s.Run(ExpFigure1); err != nil {
		t.Errorf("quick figure1: %v", err)
	}
}

func TestDirections(t *testing.T) {
	if len(Directions()) != 4 {
		t.Errorf("Directions = %v", Directions())
	}
}

func TestSuitesAccessor(t *testing.T) {
	cpu, omp := Suites()
	if cpu.Name != "SPEC CPU2006" || omp.Name != "SPEC OMP2001" {
		t.Errorf("Suites() = %q, %q", cpu.Name, omp.Name)
	}
}

func TestCoreConfigAccessor(t *testing.T) {
	s := fullStudy(t)
	if s.CoreConfig().L2Size != 4<<20 {
		t.Errorf("CoreConfig L2 = %d", s.CoreConfig().L2Size)
	}
}
