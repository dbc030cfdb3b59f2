package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"specchar/internal/mtree"
	"specchar/internal/obs"
)

// benchmarkJSON is the part of ../BENCHMARK.json these tests compare
// against the program.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("end_to_end metrics %v, program reports %v", e2e, endToEnd)
	}
	if !equalDefs(layer, perLayer) {
		t.Errorf("per_layer metrics %v, program reports %v", layer, perLayer)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shrinkForTest runs the workloads at a tiny generation scale and with
// short serving rounds. Outputs at that scale have no pinned digests and
// need not reproduce the paper's findings, so tests that use it check
// what is printed, not that it is correct.
func shrinkForTest(t *testing.T) {
	oldShrink, oldRound := shrink, roundLen
	t.Cleanup(func() { shrink, roundLen = oldShrink, oldRound })
	shrink, roundLen = true, 200*time.Millisecond
}

// TestEveryMetricPrintedWithUnit runs every workload, untraced and
// traced, and checks that the printed result carries exactly the
// declared metrics, each with its unit and a finite value.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	shrinkForTest(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := execute(context.Background(), name, 1, time.Millisecond, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", name, traced, d.name, m, d.unit)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: no operation attempted", name, traced)
			}
		}
	}
}

// TestCorruptedDatasetCounted checks the pinned QuickConfig digests and
// that a single flipped bit in a generated dataset is counted as a
// failed operation.
func TestCorruptedDatasetCounted(t *testing.T) {
	r := &run{log: io.Discard}
	data, _, err := generate(context.Background(), config(scaleQuick, 0).Gen)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		d, err := dataDigests(data)
		if err != nil {
			t.Fatal(err)
		}
		r.op("generation", r.verify(scaleQuick, d))
	}
	check()
	if r.failed != 0 {
		t.Fatal("seed 0 QuickConfig datasets do not match their pinned digests")
	}
	x := data[1].Samples[7].X
	x[3] = math.Float64frombits(math.Float64bits(x[3]) ^ 1)
	check()
	if r.attempted != 2 || r.failed != 1 {
		t.Errorf("after corrupting a dataset: attempted %d, failed %d; want 2, 1", r.attempted, r.failed)
	}
}

// TestWrongScoreCounted serves a model and checks that responses match
// direct scoring, then that a wrong expected score is counted as a
// failed request rather than ignored.
func TestWrongScoreCounted(t *testing.T) {
	shrinkForTest(t)
	cfg := config(scaleQuick, 1)
	data, _, err := generate(context.Background(), cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	st, err := induceStudy(context.Background(), cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	trees := [2]*mtree.CompiledTree{st.CPUTreeCompiled, st.CPUModelCompiled}
	srv, err := startServer(t.TempDir(), trees, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	p, err := newPool(st.CPU, trees, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := schedule(roundLen, interactiveRPS, bulkRPS, true, 1)
	r := &run{log: io.Discard}
	r.record(srv.replay(context.Background(), sched, p))
	if r.failed != 0 || r.attempted != len(sched) {
		t.Fatalf("clean traffic: attempted %d, failed %d; want %d, 0", r.attempted, r.failed, len(sched))
	}
	for _, tree := range p.want[interactive] {
		for _, preds := range tree {
			preds[0] = math.Nextafter(preds[0], math.Inf(1))
		}
	}
	r = &run{log: io.Discard}
	r.record(srv.replay(context.Background(), sched, p))
	wantFailed := 0
	for _, rq := range sched {
		if rq.kind == interactive {
			wantFailed++
		}
	}
	if r.failed != wantFailed {
		t.Errorf("with wrong expected scores: failed %d, want every interactive request (%d)", r.failed, wantFailed)
	}
}

// TestSelfTimeUnionOfChildren checks span accounting: overlapping
// children count once, and what they leave uncovered is the parent's
// self time.
func TestSelfTimeUnionOfChildren(t *testing.T) {
	st := &spanTree{children: map[uint64][]int{}}
	for i, e := range []obs.Event{
		{Kind: "span", Span: "unit", ID: 1, StartUS: 0, DurMS: 10},
		{Kind: "span", Span: "a", ID: 2, Parent: 1, StartUS: 1000, DurMS: 4},
		{Kind: "span", Span: "b", ID: 3, Parent: 1, StartUS: 3000, DurMS: 4},
		{Kind: "span", Span: "c", ID: 4, Parent: 1, StartUS: 9000, DurMS: 5},
		{Kind: "span", Span: "d", ID: 5, Parent: 2, StartUS: 1000, DurMS: 1},
	} {
		st.events = append(st.events, e)
		st.children[e.Parent] = append(st.children[e.Parent], i)
	}
	unit := st.named("unit")[0]
	if got := st.covered(unit); math.Abs(got-7) > 1e-9 {
		t.Errorf("covered = %v ms, want 7 (children 1-7 ms and 9-10 ms after clipping)", got)
	}
	if got := st.self(unit); math.Abs(got-3) > 1e-9 {
		t.Errorf("self = %v ms, want 3", got)
	}
	if got := len(st.within(1, "d")); got != 1 {
		t.Errorf("within found %d grandchildren named d, want 1", got)
	}
}

// TestQuietMedian checks that the repetitions with the most stolen CPU
// time are left out of the reported median.
func TestQuietMedian(t *testing.T) {
	reps := []rep{{10, 0.30}, {1, 0}, {2, 0.01}, {3, 0.02}, {20, 0.25}}
	if got := quietMedian(reps); got != 2 {
		t.Errorf("quietMedian = %v, want 2 (median of the three least disturbed)", got)
	}
	if got := quietMedian(reps[:1]); got != 10 {
		t.Errorf("quietMedian of one repetition = %v, want 10", got)
	}
	undisturbed := []rep{{1, 0}, {9, 0}, {2, 0}, {3, 0.1}}
	if got := quietMedian(undisturbed); got != 2 {
		t.Errorf("quietMedian = %v, want 2 (median of the three undisturbed)", got)
	}
}
