// Package tactic implements the proof-state layer and the tactic
// interpreter: Coq-style goals (typed variable context, named hypotheses,
// conclusion) and 30+ tactics including structural induction, inversion,
// rewriting, auto/eauto backward chaining, lia, and congruence, plus the
// combinators `;`, `||`, `try`, and `repeat`.
package tactic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"llmfscq/internal/kernel"
)

// Precomputed name families for the hot paths: positional fingerprint
// variables ("v0", "v1", ...) and fresh hypothesis names ("H0", "H1", ...).
const smallNames = 256

var (
	vNameTab = func() [smallNames]string {
		var t [smallNames]string
		for i := range t {
			t[i] = "v" + strconv.Itoa(i)
		}
		return t
	}()
	hNameTab = func() [smallNames]string {
		var t [smallNames]string
		for i := range t {
			t[i] = "H" + strconv.Itoa(i)
		}
		return t
	}()
)

func vName(i int) string {
	if i >= 0 && i < smallNames {
		return vNameTab[i]
	}
	return "v" + strconv.Itoa(i)
}

func hName(i int) string {
	if i >= 0 && i < smallNames {
		return hNameTab[i]
	}
	return "H" + strconv.Itoa(i)
}

// Hyp is a named hypothesis.
type Hyp struct {
	Name string
	Form *kernel.Form
}

// Goal is one open proof obligation.
type Goal struct {
	Vars  []kernel.TypedVar
	Hyps  []Hyp
	Concl *kernel.Form

	// Lazily memoized identities. Goals are shared between the states of
	// one search, between parallel expansion workers, and (through the
	// cross-search Try cache) between concurrent searches, so every memo is
	// atomic and fills from whichever goroutine computes it first; a racing
	// duplicate computation is benign — both store the same value.
	// Constructors and Clone leave them empty so in-place edits on fresh
	// copies cannot see a stale value.
	fp        atomic.Pointer[string]    // textual Fingerprint (boundary/display)
	fpk       atomic.Pointer[[2]uint64] // FingerprintKey (pruning)
	strict    atomic.Pointer[string]    // StrictString (concrete rendering)
	strictKey atomic.Pointer[[2]uint64] // StrictKey (cache identity)
}

// State is a proof state: an ordered list of open goals (the first is
// focused) against a fixed environment. States are immutable: tactics
// return fresh states sharing untouched goals.
type State struct {
	Env   *kernel.Env
	Goals []*Goal

	// Lazily memoized identities (states are immutable once built; memos
	// are atomic for the same sharing reasons as Goal's).
	fp        atomic.Pointer[string]
	fpk       atomic.Pointer[[2]uint64]
	strictKey atomic.Pointer[[2]uint64]
}

// NewState starts a proof of stmt in env: quantifiers are NOT introduced
// (the script does that), so the single goal has an empty context.
func NewState(env *kernel.Env, stmt *kernel.Form) *State {
	return &State{Env: env, Goals: []*Goal{{Concl: stmt}}}
}

// Done reports whether the proof is complete.
func (s *State) Done() bool { return len(s.Goals) == 0 }

// Clone copies the goal (vars and hyps slices are copied; forms are
// immutable and shared).
func (g *Goal) Clone() *Goal {
	ng := &Goal{
		Vars:  append([]kernel.TypedVar(nil), g.Vars...),
		Hyps:  append([]Hyp(nil), g.Hyps...),
		Concl: g.Concl,
	}
	return ng
}

// VarType returns the declared type of a context variable.
func (g *Goal) VarType(name string) (*kernel.Type, bool) {
	for _, v := range g.Vars {
		if v.Name == name {
			return v.Type, true
		}
	}
	return nil, false
}

// HypNamed returns the hypothesis with the given name.
func (g *Goal) HypNamed(name string) (Hyp, bool) {
	for _, h := range g.Hyps {
		if h.Name == name {
			return h, true
		}
	}
	return Hyp{}, false
}

// RemoveHyp returns a copy of the goal without the named hypothesis.
func (g *Goal) RemoveHyp(name string) *Goal {
	ng := g.Clone()
	out := ng.Hyps[:0]
	for _, h := range ng.Hyps {
		if h.Name != name {
			out = append(out, h)
		}
	}
	ng.Hyps = out
	return ng
}

// ReplaceHyp returns a copy of the goal with hypothesis name replaced by f.
func (g *Goal) ReplaceHyp(name string, f *kernel.Form) *Goal {
	ng := g.Clone()
	for i := range ng.Hyps {
		if ng.Hyps[i].Name == name {
			ng.Hyps[i] = Hyp{Name: name, Form: f}
		}
	}
	return ng
}

// usedNames returns all names (vars and hyps) in scope, for freshening.
func (g *Goal) usedNames() map[string]bool {
	used := map[string]bool{}
	for _, v := range g.Vars {
		used[v.Name] = true
	}
	for _, h := range g.Hyps {
		used[h.Name] = true
	}
	// Free variables of the conclusion matter too (e.g. uninstantiated
	// binder names).
	g.Concl.AddFreeVars(used)
	for _, h := range g.Hyps {
		h.Form.AddFreeVars(used)
	}
	return used
}

// FreshHypName picks an unused hypothesis name (H, H0, H1, ...).
func (g *Goal) FreshHypName(used map[string]bool) string {
	if used == nil {
		used = g.usedNames()
	}
	if !used["H"] {
		used["H"] = true
		return "H"
	}
	for i := 0; ; i++ {
		n := hName(i)
		if !used[n] {
			used[n] = true
			return n
		}
	}
}

// SubstVar substitutes a context variable by a term everywhere in the goal
// (hyps and conclusion), and drops the variable from the context.
func (g *Goal) SubstVar(x string, t *kernel.Term) *Goal {
	ng := &Goal{Concl: g.Concl.Subst1(x, t)}
	for _, v := range g.Vars {
		if v.Name != x {
			ng.Vars = append(ng.Vars, v)
		}
	}
	for _, h := range g.Hyps {
		ng.Hyps = append(ng.Hyps, Hyp{Name: h.Name, Form: h.Form.Subst1(x, t)})
	}
	return ng
}

// String renders the goal Coq-style.
func (g *Goal) String() string {
	var b strings.Builder
	for _, v := range g.Vars {
		fmt.Fprintf(&b, "%s : %s\n", v.Name, v.Type)
	}
	for _, h := range g.Hyps {
		fmt.Fprintf(&b, "%s : %s\n", h.Name, h.Form)
	}
	b.WriteString("============================\n")
	b.WriteString(g.Concl.String())
	return b.String()
}

// StrictString returns the goal's concrete rendering — the same text as
// String — memoized on the goal. Where Fingerprint deliberately forgets
// variable and hypothesis names (for duplicate-state pruning), StrictString
// keeps them: tactics observe concrete names, so caches keyed on proof
// states must use this identity. Goals are shared unchanged between a
// state and its successors — and, through the cross-search Try cache,
// between searches — so each distinct goal renders once per run.
func (g *Goal) StrictString() string {
	if p := g.strict.Load(); p != nil {
		return *p
	}
	s := g.String()
	g.strict.Store(&s)
	return s
}

// StrictKey returns a 128-bit hash of the goal's concrete identity: variable
// names and types, hypothesis names and formulas, and the conclusion, all via
// the kernel's stored strict structural hashes. Equal keys coincide (w.h.p.)
// with equal StrictStrings, but computing one is an O(#hyps) combine over
// precomputed node hashes with no rendering.
func (g *Goal) StrictKey() [2]uint64 {
	if p := g.strictKey.Load(); p != nil {
		return *p
	}
	h := kernel.NewKeyHasher(0x67)
	h.Word(uint64(len(g.Vars)))
	for _, v := range g.Vars {
		h.Str(v.Name)
		h.Pair(v.Type.HashKey())
	}
	h.Word(uint64(len(g.Hyps)))
	for _, hy := range g.Hyps {
		h.Str(hy.Name)
		h.Pair(hy.Form.HashKey())
	}
	h.Pair(g.Concl.HashKey())
	k := h.Sum()
	g.strictKey.Store(&k)
	return k
}

// fpRen builds the positional context-variable renaming shared by
// Fingerprint and FingerprintKey.
func (g *Goal) fpRen() kernel.Subst {
	ren := make(kernel.Subst, len(g.Vars))
	for i, v := range g.Vars {
		ren[v.Name] = kernel.V(vName(i))
	}
	return ren
}

// Fingerprint returns a canonical identifier for the goal: hypotheses are
// alpha-insensitive to their names, sorted, and the conclusion fingerprinted.
// Each hypothesis fingerprint is length-prefixed so the joined string is
// unambiguous: without the prefix, a single hypothesis whose fingerprint
// happens to contain the join separator collides with a pair of hypotheses.
// Kept textual for the wire-protocol boundary and display; search-internal
// pruning uses FingerprintKey.
func (g *Goal) Fingerprint() string {
	if p := g.fp.Load(); p != nil {
		return *p
	}
	ren := g.fpRen()
	hyps := make([]string, 0, len(g.Hyps))
	for _, h := range g.Hyps {
		hyps = append(hyps, h.Form.SubstTerm(ren).Fingerprint())
	}
	sort.Strings(hyps)
	var b strings.Builder
	for _, h := range hyps {
		fmt.Fprintf(&b, "%d:%s|", len(h), h)
	}
	b.WriteString("⊢")
	b.WriteString(g.Concl.SubstTerm(ren).Fingerprint())
	s := b.String()
	g.fp.Store(&s)
	return s
}

// FingerprintKey is the 128-bit equivalent of Fingerprint: per-hypothesis
// alpha-insensitive keys (context variables renamed positionally by seeding
// the fingerprint walk, which is equivalent to substituting first), sorted,
// combined with the conclusion key. Equal keys coincide (w.h.p.) with equal
// textual fingerprints, with no substitution walk and no rendering.
func (g *Goal) FingerprintKey() [2]uint64 {
	if p := g.fpk.Load(); p != nil {
		return *p
	}
	sp := fpkPool.Get().(*fpkScratch)
	ren := sp.ren
	for i, v := range g.Vars {
		ren[v.Name] = vName(i)
	}
	hyps := sp.hyps[:0]
	for _, h := range g.Hyps {
		hyps = append(hyps, kernel.FingerprintKeySeeded(h.Form, ren))
	}
	sort.Slice(hyps, func(i, j int) bool {
		if hyps[i][0] != hyps[j][0] {
			return hyps[i][0] < hyps[j][0]
		}
		return hyps[i][1] < hyps[j][1]
	})
	h := kernel.NewKeyHasher(0x68)
	h.Word(uint64(len(hyps)))
	for _, hk := range hyps {
		h.Pair(hk)
	}
	h.Pair(kernel.FingerprintKeySeeded(g.Concl, ren))
	k := h.Sum()
	g.fpk.Store(&k)
	clear(ren)
	sp.hyps = hyps
	fpkPool.Put(sp)
	return k
}

// fpkScratch recycles FingerprintKey's renaming map and per-hypothesis key
// buffer. Pooled (not per-search) because FingerprintKey is called from
// every layer that dedupes goals; the map goes back empty.
type fpkScratch struct {
	ren  map[string]string
	hyps [][2]uint64
}

var fpkPool = sync.Pool{New: func() any { return &fpkScratch{ren: map[string]string{}} }}

// Fingerprint of the whole state: concatenation over goals. Goal order
// matters (the focused goal differs).
func (s *State) Fingerprint() string {
	if len(s.Goals) == 0 {
		return "<proved>"
	}
	if p := s.fp.Load(); p != nil {
		return *p
	}
	parts := make([]string, len(s.Goals))
	for i, g := range s.Goals {
		parts[i] = g.Fingerprint()
	}
	fp := strings.Join(parts, " || ")
	s.fp.Store(&fp)
	return fp
}

// provedKey is the FingerprintKey of the empty (proved) state.
var provedKey = [2]uint64{0x70726f766564, 0x646576726f7270}

// FingerprintKey is the 128-bit equivalent of the state Fingerprint.
func (s *State) FingerprintKey() [2]uint64 {
	if len(s.Goals) == 0 {
		return provedKey
	}
	if p := s.fpk.Load(); p != nil {
		return *p
	}
	h := kernel.NewKeyHasher(0x69)
	h.Word(uint64(len(s.Goals)))
	for _, g := range s.Goals {
		h.Pair(g.FingerprintKey())
	}
	k := h.Sum()
	s.fpk.Store(&k)
	return k
}

// StrictKey is the 128-bit strict (name-sensitive) identity of the state's
// goals, used by caches whose entries must distinguish concrete renderings.
// The environment is not included; cache keys pair it separately.
func (s *State) StrictKey() [2]uint64 {
	if p := s.strictKey.Load(); p != nil {
		return *p
	}
	h := kernel.NewKeyHasher(0x6a)
	h.Word(uint64(len(s.Goals)))
	for _, g := range s.Goals {
		h.Pair(g.StrictKey())
	}
	k := h.Sum()
	s.strictKey.Store(&k)
	return k
}

// String renders the state: the focused goal in full, others as one-liners.
func (s *State) String() string {
	if s.Done() {
		return "No more goals."
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d goal(s)\n\n", len(s.Goals))
	b.WriteString(s.Goals[0].String())
	for i := 1; i < len(s.Goals); i++ {
		fmt.Fprintf(&b, "\n\ngoal %d: %s", i+1, s.Goals[i].Concl)
	}
	return b.String()
}

// withGoals returns a new state with the focused goal replaced by subgoals.
func (s *State) withGoals(subgoals []*Goal) *State {
	ng := &State{Env: s.Env}
	ng.Goals = append(ng.Goals, subgoals...)
	ng.Goals = append(ng.Goals, s.Goals[1:]...)
	return ng
}
