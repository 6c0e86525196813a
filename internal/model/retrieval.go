package model

import (
	"math"
	"sync"

	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
)

// ---------------------------------------------------------------------------
// Retrieval from the visible prompt
//
// Retrieval data lives at three lifetimes:
//   - lemStatic: what a lemma statement says, independent of any goal,
//     prompt, or profile. Built once per lemma and shared by every search
//     of a runner (RetrCache).
//   - retrIndex: one prompt's view of its visible lemmas for one n-gram and
//     profile — position decay, hint-proof usage, and a dense symbol table
//     the statements' symbols are numbered in. Built once per search (each
//     search assembles its own prompt), from the shared lemStatics.
//   - the per-query occurrence table (Model.occ): which index symbols the
//     focused goal and its hypotheses mention, marked once per query.

// Retrieval candidate verbs: each lemma record renders these four texts.
const (
	verbRewrite = iota
	verbRewriteRev
	verbApply
	verbEApply
	numVerbs
)

// lemStatic is the goal-, prompt- and profile-independent analysis of one
// lemma statement: its symbols, conclusion shape, and the dedup keys of the
// candidate texts it renders ("rewrite L." normalizes to "rewrite L").
type lemStatic struct {
	name     string
	syms     []string // unique statement symbols, deterministic walk order
	sqrtN    float64  // sqrt(len(syms)), the overlap normalizer
	isEq     bool
	lhsHead  string // head symbol of the equation LHS ("" if none)
	concl    string // goal head of the conclusion
	premHead string // goal head of the first premise ("" if no premises)
	hasPrems bool
	keys     [numVerbs]string // dedup keys of the rendered candidates, by verb
}

func analyzeLemma(lem *kernel.Lemma) *lemStatic {
	_, matrix := lem.Stmt.StripForalls()
	prems, concl := matrix.StripImpls()
	st := &lemStatic{
		name:     lem.Name,
		syms:     orderedSymbols(lem.Stmt),
		isEq:     concl.Kind == kernel.FEq,
		concl:    goalHead(concl),
		hasPrems: len(prems) > 0,
	}
	st.sqrtN = math.Sqrt(float64(len(st.syms)))
	if st.isEq && concl.T1.IsApp() {
		st.lhsHead = concl.T1.Fun
	}
	if st.hasPrems {
		st.premHead = goalHead(stripQuant(prems[0]))
	}
	st.keys[verbRewrite] = dedupKey("rewrite " + lem.Name + ".")
	st.keys[verbRewriteRev] = dedupKey("rewrite <- " + lem.Name + ".")
	st.keys[verbApply] = dedupKey("apply " + lem.Name + ".")
	st.keys[verbEApply] = dedupKey("eapply " + lem.Name + ".")
	return st
}

// lemRecord is one visible lemma of a retrieval index: the shared static
// analysis plus what depends on the prompt (position decay), the n-gram
// (hint-proof usage) and the profile (retrieval skill).
type lemRecord struct {
	st      *lemStatic
	quality float64 // RetrievalSkill * position decay
	usage   float64 // log1p(hint-proof usage count)
	syms    []int32 // st.syms as index symbol ids, same order
	lhs     int32   // symbol id of st.lhsHead (0 if none)
}

// retrIndex is the retrieval index of one (prompt, n-gram, profile). It is
// immutable once built.
type retrIndex struct {
	prompt *prompt.Prompt
	ng     *NGram
	lems   []lemRecord
	// symID numbers every symbol of the visible statements densely from 1,
	// so a query marks its goal's symbols in a flat table instead of
	// building string sets.
	symID map[string]int32
	// lemmaRec maps each position of prompt.LemmaNames() to its record in
	// lems, or -1 when the environment has no such lemma (the capability
	// noise still names it).
	lemmaRec []int32
}

// symbols returns the size of the index's symbol table, id 0 included.
func (x *retrIndex) symbols() int { return len(x.symID) + 1 }

// slot numbers the retrieval candidate (record r, verb v) from 1; the model
// resolves slots to its own dedup ids once per search.
func slot(r int, v int) int32 { return int32(r*numVerbs + v + 1) }

// RetrCache shares the static analysis of lemma statements across the
// searches of a sweep: a statement's symbols, shape and candidate keys do
// not depend on the goal, prompt or profile, so each lemma is analyzed
// once per runner instead of once per search. Entries are read-only after
// construction and the analysis is deterministic, so a racing duplicate
// build stores an identical value; results cannot depend on which one wins.
type RetrCache struct {
	lemmas sync.Map // *kernel.Lemma -> *lemStatic
}

// NewRetrCache builds an empty shared retrieval cache.
func NewRetrCache() *RetrCache { return &RetrCache{} }

// lemma returns the static analysis of lem, shared through the cache when
// there is one (c may be nil).
func (c *RetrCache) lemma(lem *kernel.Lemma) *lemStatic {
	if c != nil {
		if v, ok := c.lemmas.Load(lem); ok {
			return v.(*lemStatic)
		}
	}
	st := analyzeLemma(lem)
	if c != nil {
		if v, loaded := c.lemmas.LoadOrStore(lem, st); loaded {
			st = v.(*lemStatic)
		}
	}
	return st
}

// buildRetrIndex builds the retrieval index of (p, ng) for prof: the lemma
// items of p that env knows, in prompt order.
func buildRetrIndex(p *prompt.Prompt, ng *NGram, prof Profile, env *kernel.Env, cache *RetrCache) *retrIndex {
	idx := &retrIndex{prompt: p, ng: ng, symID: map[string]int32{}}
	sym := func(s string) int32 {
		id, ok := idx.symID[s]
		if !ok {
			id = int32(len(idx.symID) + 1)
			idx.symID[s] = id
		}
		return id
	}
	n := len(p.Items)
	var ids []int32
	for i, it := range p.Items {
		if it.Kind != corpus.ItemLemma {
			continue
		}
		lem, ok := env.Lemmas[it.Name]
		if !ok {
			idx.lemmaRec = append(idx.lemmaRec, -1)
			continue
		}
		st := cache.lemma(lem)
		dist := float64(n - 1 - i)
		decay := math.Exp2(-dist / prof.DistractionHalfLife)
		rec := lemRecord{st: st, quality: prof.RetrievalSkill * decay}
		// Usage statistics from hint proofs: lemmas the humans applied
		// often are much easier for the model to surface.
		if ng != nil {
			rec.usage = math.Log1p(ng.NameUsage(it.Name))
		}
		// One backing array for all records' symbol ids.
		start := len(ids)
		for _, s := range st.syms {
			ids = append(ids, sym(s))
		}
		rec.syms = ids[start:len(ids):len(ids)]
		if st.lhsHead != "" {
			rec.lhs = sym(st.lhsHead)
		}
		idx.lemmaRec = append(idx.lemmaRec, int32(len(idx.lems)))
		idx.lems = append(idx.lems, rec)
	}
	return idx
}

// symOcc records where one index symbol occurs in the focused goal.
type symOcc struct {
	goal bool  // in the conclusion
	hyp  int32 // 1 + index of the first hypothesis mentioning it (0: none)
}

func (m *Model) retrieval(out []scored, g *tactic.Goal) []scored {
	idx := m.retr
	occ := m.occ[:idx.symbols()]
	clear(occ)
	syms := appendSymbols(m.symBuf[:0], g.Concl)
	for _, s := range syms {
		occ[idx.symID[s]].goal = true
	}
	heads := m.hypHeads[:0]
	for hi, h := range g.Hyps {
		syms = appendSymbols(syms[:0], h.Form)
		for _, s := range syms {
			if o := &occ[idx.symID[s]]; o.hyp == 0 {
				o.hyp = int32(hi + 1)
			}
		}
		heads = append(heads, goalHead(h.Form))
	}
	m.symBuf, m.hypHeads = syms, heads
	// Symbols outside the table all land on id 0, which no record holds.
	occ[0] = symOcc{}
	gh := goalHead(g.Concl)

	for i := range idx.lems {
		rec := &idx.lems[i]
		st := rec.st
		overlap := 0.0
		for _, s := range rec.syms {
			if occ[s].goal {
				overlap += 1.0
			} else if occ[s].hyp != 0 {
				overlap += 0.4
			}
		}
		if len(rec.syms) > 0 {
			overlap /= st.sqrtN
		}

		rel := (overlap + 1.6*rec.usage) * rec.quality
		if st.isEq {
			// Equation: rewriting material.
			w := rel
			if occ[rec.lhs].goal {
				w += 1.3 * rec.quality
			}
			out = append(out, scored{text: st.keys[verbRewrite], slot: slot(i, verbRewrite), r: w})
			out = append(out, scored{text: st.keys[verbRewriteRev], slot: slot(i, verbRewriteRev), r: 0.4 * w})
			if hi := occ[rec.lhs].hyp; hi != 0 {
				out = append(out, scored{text: "rewrite " + st.name + " in " + g.Hyps[hi-1].Name + ".", r: 0.8 * w})
			}
		}
		if st.concl == gh {
			w := rel + 1.1*rec.quality
			out = append(out, scored{text: st.keys[verbApply], slot: slot(i, verbApply), r: w})
			if st.hasPrems {
				out = append(out, scored{text: st.keys[verbEApply], slot: slot(i, verbEApply), r: 0.7 * w})
			}
		} else if overlap > 0.5 {
			out = append(out, scored{text: st.keys[verbApply], slot: slot(i, verbApply), r: 0.3 * rel})
		}
		// Forward chaining into a matching hypothesis.
		if st.hasPrems && st.premHead != "?" {
			for hi, head := range heads {
				if head == st.premHead {
					out = append(out, scored{text: "apply " + st.name + " in " + g.Hyps[hi].Name + ".", r: 0.5 * rel})
					break
				}
			}
		}
	}
	return out
}

// appendSymbols appends the function, predicate, and constructor names
// applied in f to dst, repeats included, in a fixed walk order.
func appendSymbols(dst []string, f *kernel.Form) []string {
	if f == nil {
		return dst
	}
	switch f.Kind {
	case kernel.FEq:
		dst = appendTermSymbols(dst, f.T1)
		dst = appendTermSymbols(dst, f.T2)
	case kernel.FPred:
		dst = append(dst, f.Pred)
		for _, a := range f.Args {
			dst = appendTermSymbols(dst, a)
		}
	case kernel.FNot:
		dst = appendSymbols(dst, f.L)
	case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
		dst = appendSymbols(dst, f.L)
		dst = appendSymbols(dst, f.R)
	case kernel.FForall, kernel.FExists:
		dst = appendSymbols(dst, f.Body)
	}
	return dst
}

// appendTermSymbols appends the applied function names of t in preorder
// (the order of kernel.Term.Subterms).
func appendTermSymbols(dst []string, t *kernel.Term) []string {
	switch {
	case t == nil || t.Var != "":
	case t.Match != nil:
		dst = appendTermSymbols(dst, t.Match.Scrut)
		for _, c := range t.Match.Cases {
			dst = appendTermSymbols(dst, c.RHS)
		}
	default:
		if t.Fun != "" {
			dst = append(dst, t.Fun)
		}
		for _, a := range t.Args {
			dst = appendTermSymbols(dst, a)
		}
	}
	return dst
}

// orderedSymbols returns the unique applied symbols of f in deterministic
// first-encounter order. Retrieval sums the overlap score over this list
// (a map range would sum it in randomized order), so the walk order here
// is the iteration order of the scoring loop.
func orderedSymbols(f *kernel.Form) []string {
	all := appendSymbols(nil, f)
	seen := make(map[string]bool, len(all))
	out := all[:0]
	for _, s := range all {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out[:len(out):len(out)]
}

func stripQuant(f *kernel.Form) *kernel.Form {
	for f != nil && f.Kind == kernel.FForall {
		f = f.Body
	}
	return f
}
