package core

import (
	"llmfscq/internal/checker"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/tactic"
)

// expander executes the candidate tactics of one node expansion. It picks
// one of two strategies:
//
//   - batched: the document implements checker.BatchDoc (the remote
//     backend with ExecBatch enabled) — every candidate goes to the backend
//     in one round trip;
//   - serial: candidates are executed lazily, on first use, exactly like
//     the original single-threaded loop (a Greedy search that stops at the
//     first valid candidate never pays for the rest).
//
// Whatever the strategy, the search consumes outcomes through
// expansion.step(i) in candidate order and mutates its own state (Result
// counters, the seen set, heap or stack, the early Proved exit) only in
// that merge phase, on the search goroutine. Execution order therefore
// cannot influence any outcome: results are byte-identical across
// strategies, which TestSearchModeEquivalence and the scripts/check.sh
// full-sweep cmp gates enforce.
//
// The expander also owns the search's kernel.Scratch arena (DESIGN.md §13),
// used whenever the document implements checker.ScratchTryer. The scratch
// recycles the tactic interpreter's transient buffers; the states a Try
// returns never alias it, so reuse across every Try of a search is safe.
type expander struct {
	doc   checker.Doc
	batch checker.BatchDoc
	st    checker.ScratchTryer
	sc    *kernel.Scratch // search-goroutine scratch (nil without st)

	// Recycled expansions, touched only by the search goroutine.
	free []*expansion
}

func newExpander(doc checker.Doc) *expander {
	x := &expander{doc: doc}
	if bd, ok := doc.(checker.BatchDoc); ok {
		x.batch = bd
	}
	if st, ok := doc.(checker.ScratchTryer); ok {
		x.st = st
		x.sc = &kernel.Scratch{}
	}
	return x
}

// try executes one sentence, threading the search's scratch when the
// document supports it.
func (x *expander) try(parent *tactic.State, path []string, sentence string) checker.Step {
	if x.st != nil {
		return x.st.TryScratch(parent, path, sentence, x.sc)
	}
	return x.doc.Try(parent, path, sentence)
}

// expansion holds one node's candidates and their execution outcomes. The
// candidate slice is an owned copy: the model's Propose reuses its output
// scratch across queries, and a Linear search keeps expansions alive in
// backtracking frames long past the next Propose call.
type expansion struct {
	x      *expander
	parent *tactic.State
	path   []string
	cands  []model.Candidate
	steps  []checker.Step
	done   []bool
}

func (e *expansion) len() int                   { return len(e.cands) }
func (e *expansion) cand(i int) model.Candidate { return e.cands[i] }

// step returns candidate i's outcome, executing it on demand under the
// serial strategy.
func (e *expansion) step(i int) checker.Step {
	if !e.done[i] {
		e.steps[i] = e.x.try(e.parent, e.path, e.cands[i].Tactic)
		e.done[i] = true
	}
	return e.steps[i]
}

// get returns a recycled expansion with buffers sized for n candidates.
func (x *expander) get(n int) *expansion {
	if last := len(x.free) - 1; last >= 0 {
		e := x.free[last]
		x.free[last] = nil
		x.free = x.free[:last]
		if cap(e.cands) >= n {
			e.cands = e.cands[:n]
			e.steps = e.steps[:n]
			e.done = e.done[:n]
			for i := range e.done {
				e.done[i] = false
			}
			return e
		}
	}
	return &expansion{
		x:     x,
		cands: make([]model.Candidate, n),
		steps: make([]checker.Step, n),
		done:  make([]bool, n),
	}
}

// put recycles an expansion the search has fully merged. The search must
// not touch e afterwards; steps are cleared so recycled buffers do not pin
// retired proof states.
func (x *expander) put(e *expansion) {
	e.parent, e.path = nil, nil
	for i := range e.steps {
		e.steps[i] = checker.Step{}
		e.cands[i] = model.Candidate{}
	}
	x.free = append(x.free, e)
}

// expand copies the candidates and — under the batched strategy —
// executes them all in one round trip. Serial consumers get a lazy
// expansion.
//
//hot:root
func (x *expander) expand(parent *tactic.State, path []string, cands []model.Candidate) *expansion {
	e := x.get(len(cands))
	e.parent = parent
	e.path = path
	copy(e.cands, cands)
	if x.batch == nil || len(cands) == 0 {
		return e
	}
	sentences := make([]string, len(cands))
	for i := range cands {
		sentences[i] = cands[i].Tactic
	}
	steps := x.batch.TryBatch(parent, path, sentences)
	for i := range e.steps {
		e.steps[i], e.done[i] = steps[i], true
	}
	return e
}
