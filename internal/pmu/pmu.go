// Package pmu models the performance-monitoring-unit side of the paper's
// data collection (Section III): the catalog of monitored events
// (Table I), and the five-counter arrangement of the Intel Core 2 Duo in
// which three fixed counters always measure cycles/instructions/reference
// cycles while two programmable counters are round-robin multiplexed over
// the remaining events in 2M-instruction windows.
//
// Event counts are normalized by the instructions of the window they were
// observed in, producing the per-instruction densities that form the
// model's predictor variables.
package pmu

import "specchar/internal/dataset"

// EventID identifies one of the programmable (multiplexed) events of
// Table I. CPI itself is derived from the fixed counters and is the
// response variable, not an EventID.
type EventID int

// The programmable events, in Table I order. LdBlkOlp (load blocked by an
// overlapping store) appears in the paper's linear models and tree figures
// (it is the root split of the SPEC OMP2001 tree) even though the OCR of
// Table I drops its row; it is included here.
const (
	Load       EventID = iota // INST_RETIRED.LOADS: retired load instructions
	Store                     // INST_RETIRED.STORES: retired store instructions
	MisprBr                   // BR_INST_RETIRED.MISPRED: mispredicted branches
	Br                        // BR_INST_RETIRED.ANY: retired branches
	L1DMiss                   // MEM_LOAD_RETIRED.L1D_MISS: L1 data-cache misses
	L1IMiss                   // L1I_MISSES: L1 instruction-cache misses
	L2Miss                    // MEM_LOAD_RETIRED.L2_MISS: L2 misses
	DtlbMiss                  // DTLB_MISSES.ANY: last-level DTLB misses
	LdBlkStA                  // LOAD_BLOCK.STA: loads blocked by unknown store address
	LdBlkStd                  // LOAD_BLOCK.STD: loads blocked by unready store data
	LdBlkOlp                  // LOAD_BLOCK.OVERLAP_STORE: loads blocked by partial overlap with a store
	SplitLoad                 // L1D_SPLIT.LOADS: loads split across cache lines
	SplitStore                // L1D_SPLIT.STORES: stores split across cache lines
	Misalign                  // MISALIGN_MEM_REF: misaligned memory references
	Div                       // DIV: divide operations
	PageWalk                  // PAGE_WALKS.COUNT: hardware page walks
	Mul                       // MUL: multiply operations
	FpAsst                    // FP_ASSIST: floating-point assists
	SIMD                      // SIMD_INST_RETIRED.ANY: retired SIMD instructions

	NumEvents // number of programmable events
)

// EventInfo describes one catalog entry.
type EventInfo struct {
	ID          EventID
	Name        string // short model-variable name used in equations
	PMUName     string // hardware event name
	Description string
}

var catalog = [NumEvents]EventInfo{
	Load:       {Load, "Load", "INST_RETIRED.LOADS", "loads per instruction"},
	Store:      {Store, "Store", "INST_RETIRED.STORES", "stores per instruction"},
	MisprBr:    {MisprBr, "MisprBr", "BR_INST_RETIRED.MISPRED", "mispredicted branches per instruction"},
	Br:         {Br, "Br", "BR_INST_RETIRED.ANY", "branches per instruction"},
	L1DMiss:    {L1DMiss, "L1DMiss", "MEM_LOAD_RETIRED.L1D_MISS", "L1 data misses per instruction"},
	L1IMiss:    {L1IMiss, "L1IMiss", "L1I_MISSES", "L1 instruction misses per instruction"},
	L2Miss:     {L2Miss, "L2Miss", "MEM_LOAD_RETIRED.L2_MISS", "L2 misses per instruction"},
	DtlbMiss:   {DtlbMiss, "DtlbMiss", "DTLB_MISSES.ANY", "last-level DTLB misses per instruction"},
	LdBlkStA:   {LdBlkStA, "LdBlkStA", "LOAD_BLOCK.STA", "loads blocked by unknown store address per instruction"},
	LdBlkStd:   {LdBlkStd, "LdBlkStd", "LOAD_BLOCK.STD", "loads blocked by unready store data per instruction"},
	LdBlkOlp:   {LdBlkOlp, "LdBlkOlp", "LOAD_BLOCK.OVERLAP_STORE", "loads blocked by overlapping store per instruction"},
	SplitLoad:  {SplitLoad, "SplitLoad", "L1D_SPLIT.LOADS", "cache-line-split loads per instruction"},
	SplitStore: {SplitStore, "SplitStore", "L1D_SPLIT.STORES", "cache-line-split stores per instruction"},
	Misalign:   {Misalign, "Misalign", "MISALIGN_MEM_REF", "misaligned memory references per instruction"},
	Div:        {Div, "Div", "DIV", "divide operations per instruction"},
	PageWalk:   {PageWalk, "PageWalk", "PAGE_WALKS.COUNT", "hardware page walks per instruction"},
	Mul:        {Mul, "Mul", "MUL", "multiply operations per instruction"},
	FpAsst:     {FpAsst, "FpAsst", "FP_ASSIST", "floating-point assists per instruction"},
	SIMD:       {SIMD, "SIMD", "SIMD_INST_RETIRED.ANY", "retired SIMD instructions per instruction"},
}

// Catalog returns all catalog entries in Table I order.
func Catalog() []EventInfo {
	out := make([]EventInfo, NumEvents)
	copy(out, catalog[:])
	return out
}

// Schema returns the dataset schema induced by the catalog: CPI as the
// response, the programmable events (in catalog order) as predictors.
// Column j of a sample corresponds to EventID j.
func Schema() *dataset.Schema {
	attrs := make([]string, NumEvents)
	for i, e := range catalog {
		attrs[i] = e.Name
	}
	return &dataset.Schema{Response: "CPI", Attributes: attrs}
}

// Counts holds the raw (un-normalized) activity of one measurement window:
// the fixed counters (instructions, core cycles) and every programmable
// event's true occurrence count during the window.
type Counts struct {
	Instructions float64
	Cycles       float64
	Ev           [NumEvents]float64
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Instructions += other.Instructions
	c.Cycles += other.Cycles
	for i := range c.Ev {
		c.Ev[i] += other.Ev[i]
	}
}

// CPI returns cycles per instruction for the window.
func (c *Counts) CPI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return c.Cycles / c.Instructions
}
