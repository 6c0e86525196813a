//go:build !race

package core

import (
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/model"
)

// TestAllocFreeExpansionPool pins the expansion recycling contract: once the
// expander's free list holds a retired expansion of sufficient capacity, a
// get/put round trip at the same width allocates nothing — every search
// iteration after the first reuses the cands/steps/done buffers. Excluded
// under -race (instrumentation allocates).
func TestAllocFreeExpansionPool(t *testing.T) {
	x := newExpander(nil)
	cands := make([]model.Candidate, 8)
	for i := range cands {
		cands[i] = model.Candidate{Tactic: "auto.", LogProb: -1}
	}
	x.put(x.get(len(cands))) // warm the free list
	if avg := testing.AllocsPerRun(200, func() {
		e := x.get(len(cands))
		copy(e.cands, cands)
		e.steps[0] = checker.Step{Status: checker.Rejected}
		e.done[0] = true
		x.put(e)
	}); avg != 0 {
		t.Fatalf("expansion get/put round trip allocated %.2f/op, want 0", avg)
	}
}
