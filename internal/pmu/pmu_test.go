package pmu

import (
	"math"
	"testing"
)

func TestCatalogComplete(t *testing.T) {
	if NumEvents != 19 {
		t.Fatalf("NumEvents = %d, want 19", NumEvents)
	}
	seen := make(map[string]bool)
	for i, e := range Catalog() {
		if e.ID != EventID(i) {
			t.Errorf("catalog[%d].ID = %v", i, e.ID)
		}
		if e.Name == "" || e.PMUName == "" || e.Description == "" {
			t.Errorf("catalog entry %d incomplete: %+v", i, e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate event name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestSchemaMatchesCatalog(t *testing.T) {
	s := Schema()
	if s.Response != "CPI" {
		t.Errorf("response = %q", s.Response)
	}
	if s.NumAttrs() != int(NumEvents) {
		t.Fatalf("schema width = %d", s.NumAttrs())
	}
	// Column j must correspond to EventID j.
	if s.Attributes[DtlbMiss] != "DtlbMiss" || s.Attributes[SIMD] != "SIMD" {
		t.Errorf("schema order broken: %v", s.Attributes)
	}
}

func TestCountsAddAndCPI(t *testing.T) {
	a := Counts{Instructions: 100, Cycles: 150}
	a.Ev[Load] = 30
	b := Counts{Instructions: 100, Cycles: 50}
	b.Ev[Load] = 10
	a.Add(b)
	if a.Instructions != 200 || a.Cycles != 200 || a.Ev[Load] != 40 {
		t.Errorf("Add result = %+v", a)
	}
	if got := a.CPI(); got != 1.0 {
		t.Errorf("CPI = %v, want 1", got)
	}
	empty := Counts{}
	if empty.CPI() != 0 {
		t.Errorf("CPI of empty = %v", empty.CPI())
	}
}

func TestMultiplexerWindows(t *testing.T) {
	m := NewMultiplexer()
	// 19 events on 2 counters → 10 windows.
	if got := m.Windows(); got != 10 {
		t.Errorf("Windows = %d, want 10", got)
	}
	m.ProgCounters = 4
	if got := m.Windows(); got != 5 {
		t.Errorf("Windows with 4 counters = %d, want 5", got)
	}
	m.ProgCounters = 0 // degenerate configuration clamps to 1
	if got := m.Windows(); got != int(NumEvents) {
		t.Errorf("Windows with 0 counters = %d, want %d", got, NumEvents)
	}
}

func uniformWindows(m *Multiplexer, perWindowInstr, cyclesPerInstr float64, density map[EventID]float64) []Counts {
	w := m.Windows()
	out := make([]Counts, w)
	for i := range out {
		out[i].Instructions = perWindowInstr
		out[i].Cycles = perWindowInstr * cyclesPerInstr
		for e, d := range density {
			out[i].Ev[e] = d * perWindowInstr
		}
	}
	return out
}

func TestObserveUniformBehaviour(t *testing.T) {
	// When every window behaves identically, multiplexing adds no error.
	m := NewMultiplexer()
	wins := uniformWindows(m, 1000, 1.5, map[EventID]float64{Load: 0.3, DtlbMiss: 0.001})
	x, cpi, err := m.Observe(wins, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cpi-1.5) > 1e-12 {
		t.Errorf("cpi = %v, want 1.5", cpi)
	}
	if math.Abs(x[Load]-0.3) > 1e-12 || math.Abs(x[DtlbMiss]-0.001) > 1e-12 {
		t.Errorf("densities = Load %v DtlbMiss %v", x[Load], x[DtlbMiss])
	}
	for e, v := range x {
		if EventID(e) == Load || EventID(e) == DtlbMiss {
			continue
		}
		if v != 0 {
			t.Errorf("event %d density = %v, want 0", e, v)
		}
	}
}

func TestObserveMultiplexingNoise(t *testing.T) {
	// Behaviour drifts across windows: the multiplexed estimate of an
	// event density differs from the true whole-sample density.
	m := NewMultiplexer()
	wins := make([]Counts, m.Windows())
	for i := range wins {
		wins[i].Instructions = 1000
		wins[i].Cycles = 1000
		// Load density ramps from 0 to 0.9 across windows.
		wins[i].Ev[Load] = 1000 * float64(i) / 10
	}
	xMux, _, err := m.Observe(wins, 0)
	if err != nil {
		t.Fatal(err)
	}
	ideal := &Multiplexer{ProgCounters: 2, Enabled: false}
	xIdeal, _, err := ideal.Observe(wins, 0)
	if err != nil {
		t.Fatal(err)
	}
	if xMux[Load] == xIdeal[Load] {
		t.Error("expected multiplexing noise on drifting behaviour")
	}
	// Load (event 0) is observed in window (0+rot)%10; rotation must move it.
	x1, _, _ := m.Observe(wins, 1)
	if x1[Load] == xMux[Load] {
		t.Error("rotation did not change the observed window")
	}
	// Rotation is modular.
	x10, _, _ := m.Observe(wins, 10)
	if x10[Load] != xMux[Load] {
		t.Error("rotation 10 should equal rotation 0 for 10 windows")
	}
}

func TestObserveErrors(t *testing.T) {
	m := NewMultiplexer()
	if _, _, err := m.Observe(make([]Counts, 3), 0); err == nil {
		t.Error("wrong window count should error")
	}
	if _, _, err := m.Observe(make([]Counts, m.Windows()), 0); err == nil {
		t.Error("zero instructions should error")
	}
}

func TestObserveZeroInstructionWindow(t *testing.T) {
	// One empty window: its events read 0, others are unaffected.
	m := NewMultiplexer()
	wins := uniformWindows(m, 1000, 1, map[EventID]float64{Load: 0.5, Store: 0.2})
	wins[0] = Counts{} // window 0 observes Load and Store
	x, _, err := m.Observe(wins, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x[Load] != 0 || x[Store] != 0 {
		t.Errorf("events in empty window should read 0, got Load %v Store %v", x[Load], x[Store])
	}
	// MisprBr (event 2) lives in window 1, unaffected.
	if x[MisprBr] != 0 { // density was never set; still 0, fine
		t.Errorf("x[MisprBr] = %v", x[MisprBr])
	}
}

func TestSampleLabel(t *testing.T) {
	m := NewMultiplexer()
	wins := uniformWindows(m, 100, 2, nil)
	s, err := m.Sample(wins, 0, "429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	if s.Label != "429.mcf" || s.Y != 2 || len(s.X) != int(NumEvents) {
		t.Errorf("Sample = %+v", s)
	}
}
