package uarch

// BranchPredictor is a local-history two-level predictor in the style of
// the Core-family front end: a table of per-site history registers feeds a
// table of 2-bit saturating counters indexed by (site, local history).
// Strongly biased branches and short repeating patterns are learned
// quickly; high-entropy branches mispredict at close to chance — exactly
// the gradient the workload phases use to modulate the MisprBr event.
//
// A local (per-PC) scheme is used rather than gshare because the synthetic
// op streams interleave independent branch sites in random order; a global
// history register would be pure noise there, while real programs'
// global histories correlate with the executing site.
type BranchPredictor struct {
	counters []uint8 // 2-bit counters, 0..3; >=2 predicts taken
	history  []uint8 // per-site local history
	pcMask   uint64
	histMask uint8
}

// historyBits is the length of each site's local history register.
const historyBits = 6

// NewBranchPredictor builds a predictor with 2^tableBits counters; the
// counter table is shared between 2^(tableBits-historyBits) PC slots.
// tableBits must exceed historyBits.
func NewBranchPredictor(tableBits uint) *BranchPredictor {
	if tableBits <= historyBits {
		tableBits = historyBits + 1
	}
	size := 1 << tableBits
	pcSlots := size >> historyBits
	c := make([]uint8, size)
	for i := range c {
		c[i] = 1 // weakly not-taken
	}
	return &BranchPredictor{
		counters: c,
		history:  make([]uint8, pcSlots),
		pcMask:   uint64(pcSlots - 1),
		histMask: (1 << historyBits) - 1,
	}
}

// Predict consumes one branch: it returns whether the prediction matched
// the actual outcome, then trains the counter and the site's history.
func (b *BranchPredictor) Predict(pc uint64, taken bool) (correct bool) {
	slot := (pc >> 2) & b.pcMask
	hist := b.history[slot] & b.histMask
	idx := slot<<historyBits | uint64(hist)
	pred := b.counters[idx] >= 2
	correct = pred == taken
	if taken {
		if b.counters[idx] < 3 {
			b.counters[idx]++
		}
	} else if b.counters[idx] > 0 {
		b.counters[idx]--
	}
	b.history[slot] = (b.history[slot]<<1 | uint8(boolBit(taken))) & b.histMask
	return correct
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
