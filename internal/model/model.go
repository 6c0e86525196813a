package model

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"llmfscq/internal/kernel"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
	"llmfscq/internal/textmetrics"
)

// Candidate is one proposed next tactic with its log-probability (the
// best-first search accumulates these along paths, as in GPT-f).
type Candidate struct {
	Tactic  string
	LogProb float64
}

// Model is a simulated LLM: a capability profile bound to an environment
// (used only to parse the lemma statements that are visible in the prompt).
// A Model is owned by one proof search at a time: its memos are bound to
// one (prompt, n-gram) pair and are not safe for concurrent Propose calls
// on the same Model (grid workers each build their own).
type Model struct {
	Profile Profile
	Env     *kernel.Env
	// Retr, when set, shares the per-lemma retrieval analysis across the
	// searches of a sweep (the runner owns one).
	Retr *RetrCache
	retr *retrIndex // index of the bound (prompt, n-gram) pair

	// Dedup state, bound to retr (see bind). Every distinct dedup key gets
	// a dense id from 1; pos and parts are indexed by it.
	norm   map[string]normed // candidate text -> dedup key and id
	ids    map[string]int32  // dedup key -> id
	slotID []int32           // retrieval slot -> id (0: not yet resolved)
	pos    []int32           // id -> 1 + position in the current slate (0: absent)
	// parts caches the candidate-local terms of NGram.Score (the unigram
	// and head-word components, which depend only on the candidate text);
	// the prev-dependent bigram row is hoisted out of the candidate loop
	// instead of being memoized, which keeps the memo's cardinality at the
	// candidate vocabulary rather than its product with every prev.
	parts []scorePart
	// conts memoizes the keyed n-gram continuations per previous tactic.
	conts map[string][]scored
	slate map[[2]uint64]*slateEntry

	// Propose scratch space, reused across the queries of a search. The
	// sweep spends most of its time in Propose, and per-query maps and
	// slices were the dominant allocation source.
	pool, uniq, jpool []scored
	occ               []symOcc
	symBuf, hypHeads  []string
	// scoreBuf packs the softmax lanes (utilities | probabilities | Gumbel
	// keys) into one struct-of-arrays buffer: a single grow per slate size
	// instead of three, and the lanes stay on the same cache lines.
	scoreBuf []float64
	order    []int
	out      []Candidate
}

// slateEntry is the memoized deterministic slate for one focused goal: the
// structural + retrieval pool, already normalized and deduplicated. A Model
// serves one search, so its prompt and n-gram are fixed for its lifetime
// and the entry depends on the goal identity alone; only the prev-dependent
// continuations and the rng-driven noise are folded in per query.
type slateEntry struct {
	uniq []scored
}

// New binds a profile to an environment.
func New(p Profile, env *kernel.Env) *Model { return &Model{Profile: p, Env: env} }

// scorePart holds the memoized candidate-local terms of NGram.Score,
// pre-scaled but kept separate so the final sum adds them in the same
// order as Score itself (floating-point addition does not reassociate).
type scorePart struct {
	u12, h05 float64
	ok       bool
}

// normed is a candidate text's dedup key and that key's id (0 when the
// text normalizes to nothing).
type normed struct {
	key string
	id  int32
}

// dedupKey is the slate's dedup key of a candidate text: whitespace
// normalized, without the sentence's final period.
func dedupKey(text string) string {
	return strings.TrimSuffix(textmetrics.NormalizeScript(text), ".")
}

// scored is an internal candidate with its utility components.
type scored struct {
	text string
	// id is the dedup id once text has been normalized to its key (0:
	// not yet). slot marks a retrieval candidate whose text is already
	// the key (0: none).
	id, slot int32
	h        float64 // goal-directed heuristic (scaled by HeuristicSkill)
	r        float64 // retrieval relevance (already skill-scaled)
	j        float64 // raw utility (noise candidates compete unscaled)
}

// Propose generates up to MaxOutputs tactic candidates for the focused goal
// of st. path is the proof-so-far (tactic sentences from the root), used by
// the n-gram component; ng may be nil (vanilla prompts have no proofs to
// mine). rng drives the sampling noise and must be owned by the caller for
// determinism.
//
// The returned slice is part of the model's reused scratch: it is valid
// only until the next Propose call on the same Model. Callers that retain
// candidates (the search engine's expansions do) must copy them first.
//
//hot:root
func (m *Model) Propose(p *prompt.Prompt, st *tactic.State, path []string, ng *NGram, rng *rand.Rand) []Candidate {
	if st.Done() || len(st.Goals) == 0 {
		return nil
	}
	goal := st.Goals[0]
	prev := "<start>"
	if len(path) > 0 {
		prev = textmetrics.NormalizeScript(path[len(path)-1])
	}
	m.bind(p, ng)
	for _, c := range m.uniq {
		m.pos[c.id] = 0
	}

	// The deterministic slate (structural + retrieval, deduplicated) is a
	// pure function of the goal for this Model's fixed prompt and n-gram;
	// searches revisit the same focused goal across queries (repeat's
	// progress loops, siblings sharing unfocused goals), and the memo keys
	// on StrictKey because candidate texts mention concrete names.
	gk := goal.StrictKey()
	ent, revisit := m.slate[gk]
	var uniq []scored
	if ent != nil {
		uniq = append(m.uniq[:0], ent.uniq...)
		for i, c := range uniq {
			m.pos[c.id] = int32(i + 1)
		}
	} else {
		pool := m.structural(m.pool[:0], goal)
		pool = m.retrieval(pool, goal)
		m.pool = pool
		uniq = m.uniq[:0]
		for _, c := range pool {
			uniq = m.fold(uniq, c)
		}
		// Second sighting: this goal does recur, so the entry will pay for
		// itself (first sightings — most goals in a search — stay in
		// scratch and allocate nothing per query).
		if revisit {
			m.slate[gk] = &slateEntry{uniq: slices.Clone(uniq)}
		} else {
			m.slate[gk] = nil
		}
	}
	// Fold the per-query candidates on top: the idiomatic continuations
	// mined from hint proofs (prev-dependent, including two-step "a; b"
	// compounds) and the capability noise (corrupted names and junk tactics
	// competing with real candidates). Merge order matches a single deduped
	// pool exactly, so slates are byte-identical to the memo-free path.
	if ng != nil {
		for _, c := range m.continuations(ng, prev) {
			uniq = m.fold(uniq, c)
		}
	}
	m.jpool = m.junk(m.jpool[:0], p, rng)
	for _, c := range m.jpool {
		uniq = m.fold(uniq, c)
	}
	m.uniq = uniq
	if len(uniq) == 0 {
		return nil
	}

	// Utilities -> temperature softmax. The MaxOutputs completions are
	// sampled WITH replacement, like a real LLM's k independent samples:
	// a confident model emits duplicates, shrinking the effective search
	// width — the reason the paper sees far more "stuck" than "fuelout".
	prof := m.Profile
	lanes := resize(&m.scoreBuf, 3*len(uniq))
	utils := lanes[:len(uniq):len(uniq)]
	maxU := math.Inf(-1)
	var biRow map[string]float64
	scoreable := ng != nil && ng.total != 0
	if scoreable {
		biRow = ng.bi[prev]
	}
	for i, c := range uniq {
		// Open-coded ng.Score(prev, c.text): c.text is the dedup key, so
		// it is already whitespace-normalized and Score's NormalizeScript
		// would be the identity; the candidate-local terms come from the
		// memo and the bigram row lookup is hoisted above the loop. The
		// terms are summed in Score's order so the result is bit-identical.
		g := 0.0
		if scoreable {
			pt := &m.parts[c.id]
			if !pt.ok {
				// Log1p(0) is exactly 0, so the zero-count fast paths are
				// bit-identical; most candidates miss the n-gram tables.
				if n := ng.uni[c.text]; n != 0 {
					pt.u12 = 0.12 * math.Log1p(n)
				}
				if n := ng.headUN[headOf(c.text)]; n != 0 {
					pt.h05 = 0.05 * math.Log1p(n)
				}
				pt.ok = true
			}
			if biRow != nil {
				if n := biRow[c.text]; n != 0 {
					g = 0.6 * math.Log1p(n)
				}
			}
			g += pt.u12
			g += pt.h05
			if g > 2.0 {
				g = 2.0
			}
		}
		u := 2.2*c.h*prof.HeuristicSkill + c.r + g*prof.HintBoost + c.j
		utils[i] = u
		if u > maxU {
			maxU = u
		}
	}
	temp := prof.Temperature
	if temp <= 0 {
		temp = 0.01
	}
	probs := lanes[len(uniq) : 2*len(uniq) : 2*len(uniq)]
	var z float64
	for i, u := range utils {
		probs[i] = math.Exp((u - maxU) / temp)
		z += probs[i]
	}
	for i := range probs {
		probs[i] /= z
	}
	// Gumbel-top-k selects MaxOutputs distinct candidates proportionally;
	// confidence pruning then drops candidates far below the mode — a
	// confident model's k samples concentrate and return fewer distinct
	// tactics (why the paper sees more "stuck" than "fuelout").
	keys := lanes[2*len(uniq):]
	for i, p := range probs {
		keys[i] = math.Log(p) + gumbel(rng)
	}
	// Stable top-k selection, equivalent to a full stable sort by key
	// descending followed by order[:k] (k is MaxOutputs, at most 8, while
	// the slate runs to hundreds): an insertion beats an equal key never —
	// later indices stay after earlier ones, exactly the stable-sort order.
	k := prof.MaxOutputs
	if k > len(uniq) {
		k = len(uniq)
	}
	order := resizeInt(&m.order, len(uniq))[:0]
	for i := range keys {
		n := len(order)
		if n < k {
			order = append(order, i)
			n++
		} else if keys[i] > keys[order[n-1]] {
			order[n-1] = i
		} else {
			continue
		}
		for j := n - 1; j > 0 && keys[order[j]] > keys[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	pMax := 0.0
	for _, idx := range order {
		if probs[idx] > pMax {
			pMax = probs[idx]
		}
	}
	// Confidence pruning with a floor: k temperature samples from a real
	// model concentrate when the distribution is peaked, but essentially
	// never return fewer than a few distinct completions.
	const confidencePrune = 0.12
	const minSlate = 3
	out := m.out[:0]
	for rank, idx := range order {
		if rank >= minSlate && probs[idx] < confidencePrune*pMax {
			continue
		}
		out = append(out, Candidate{Tactic: uniq[idx].text, LogProb: math.Log(probs[idx])})
	}
	slices.SortStableFunc(out, byLogProbDesc)
	m.out = out
	return out
}

// byLogProbDesc orders candidates by descending log-probability.
func byLogProbDesc(a, b Candidate) int { return cmp.Compare(b.LogProb, a.LogProb) }

// bind points the model at the retrieval index of (p, ng). Dedup ids, the
// slate memo, and the n-gram memos all depend on the pair, so a new pair
// starts them afresh.
func (m *Model) bind(p *prompt.Prompt, ng *NGram) {
	if m.retr != nil && m.retr.prompt == p && m.retr.ng == ng {
		return
	}
	m.retr = buildRetrIndex(p, ng, m.Profile, m.Env, m.Retr)
	m.norm = map[string]normed{}
	m.ids = map[string]int32{}
	m.slotID = make([]int32, slot(len(m.retr.lems), 0))
	m.pos = append(m.pos[:0], 0)
	m.parts = append(m.parts[:0], scorePart{})
	m.conts = map[string][]scored{}
	m.slate = map[[2]uint64]*slateEntry{}
	m.uniq = m.uniq[:0]
	if n := m.retr.symbols(); cap(m.occ) < n {
		m.occ = make([]symOcc, n)
	}
}

// keyID returns the dedup id of a (non-empty) key, assigning the next one
// on first sight.
func (m *Model) keyID(key string) int32 {
	id, ok := m.ids[key]
	if !ok {
		id = int32(len(m.pos))
		m.ids[key] = id
		m.pos = append(m.pos, 0)
		m.parts = append(m.parts, scorePart{})
	}
	return id
}

// normalize returns a candidate text's dedup key and id. Normalization is
// memoized per text: it is a pure string function and candidate texts
// repeat heavily across the queries of a search.
func (m *Model) normalize(text string) normed {
	n, ok := m.norm[text]
	if !ok {
		n.key = dedupKey(text)
		if n.key != "" {
			n.id = m.keyID(n.key)
		}
		m.norm[text] = n
	}
	return n
}

// continuations returns the n-gram's idiomatic follow-ups of prev as keyed
// candidates: the frequent successors, then the two-step "a; b" compounds.
// They depend on prev alone for the bound n-gram, so each prev is mined
// once per search.
func (m *Model) continuations(ng *NGram, prev string) []scored {
	if cs, ok := m.conts[prev]; ok {
		return cs
	}
	conts, pairs := ng.Continuations(prev, 3), ng.ContinuationPairs(prev, 3)
	cs := make([]scored, 0, len(conts)+len(pairs))
	for _, cont := range conts {
		cs = m.appendKeyed(cs, cont, 0.9)
	}
	for _, pair := range pairs {
		cs = m.appendKeyed(cs, pair.Text, 1.1+0.25*math.Log1p(pair.Count))
	}
	m.conts[prev] = cs
	return cs
}

// appendKeyed appends text as a keyed candidate with heuristic score h;
// texts that normalize to nothing never reach the slate and are dropped.
func (m *Model) appendKeyed(cs []scored, text string, h float64) []scored {
	if n := m.normalize(text); n.id != 0 {
		cs = append(cs, scored{text: n.key, id: n.id, h: h})
	}
	return cs
}

// resize returns *buf with length n, growing the backing array only when
// needed.
func resize(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func resizeInt(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// gumbel draws a standard Gumbel variate.
func gumbel(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(-math.Log(u))
}

// ---------------------------------------------------------------------------
// Goal-directed enumeration

func conclHead(f *kernel.Form) string {
	for f != nil {
		switch f.Kind {
		case kernel.FForall, kernel.FExists:
			f = f.Body
		case kernel.FImpl:
			f = f.R
		case kernel.FNot:
			return "~"
		case kernel.FPred:
			return "P:" + f.Pred
		case kernel.FEq:
			return "="
		case kernel.FAnd:
			return "&"
		case kernel.FOr:
			return "|"
		case kernel.FIff:
			return "<>"
		case kernel.FTrue:
			return "T"
		case kernel.FFalse:
			return "F"
		default:
			return "?"
		}
	}
	return "?"
}

func goalHead(f *kernel.Form) string {
	switch f.Kind {
	case kernel.FPred:
		return "P:" + f.Pred
	case kernel.FEq:
		return "="
	case kernel.FAnd:
		return "&"
	case kernel.FOr:
		return "|"
	case kernel.FIff:
		return "<>"
	case kernel.FNot:
		return "~"
	case kernel.FTrue:
		return "T"
	case kernel.FFalse:
		return "F"
	case kernel.FForall:
		return "A"
	case kernel.FExists:
		return "E"
	case kernel.FImpl:
		return ">"
	default:
		return "?"
	}
}

// looksArith reports whether a formula is plausibly linear arithmetic.
func looksArith(f *kernel.Form) bool {
	if f == nil {
		return false
	}
	switch f.Kind {
	case kernel.FPred:
		return f.Pred == "le" || f.Pred == "lt"
	case kernel.FEq:
		arith := false
		check := func(t *kernel.Term) {
			t.Subterms(func(u *kernel.Term) bool {
				if u.IsApp() && (u.Fun == "plus" || u.Fun == "minus" || u.Fun == "S" || u.Fun == "O" || u.Fun == "mult") {
					arith = true
					return false
				}
				return true
			})
		}
		check(f.T1)
		check(f.T2)
		return arith
	case kernel.FNot:
		return looksArith(f.L)
	case kernel.FFalse:
		return true
	}
	return false
}

// fold merges one candidate into the deduplicated slate, keeping the best
// score per component for repeated keys. Candidates not yet keyed are
// normalized first; retrieval candidates carry their key already and
// resolve their slot to an id once per search.
func (m *Model) fold(uniq []scored, c scored) []scored {
	switch {
	case c.id != 0:
	case c.slot != 0:
		c.id = m.slotID[c.slot]
		if c.id == 0 {
			c.id = m.keyID(c.text)
			m.slotID[c.slot] = c.id
		}
	default:
		n := m.normalize(c.text)
		if n.id == 0 {
			return uniq
		}
		c.text, c.id = n.key, n.id
	}
	if p := m.pos[c.id]; p != 0 {
		u := &uniq[p-1]
		if c.h > u.h {
			u.h = c.h
		}
		if c.r > u.r {
			u.r = c.r
		}
		if c.j > u.j {
			u.j = c.j
		}
		return uniq
	}
	m.pos[c.id] = int32(len(uniq) + 1)
	return append(uniq, c)
}

// structural appends the goal-shape candidate pool: a pure function of
// (goal, env), memoized at the slate level in Propose.
func (m *Model) structural(out []scored, g *tactic.Goal) []scored {
	add := func(text string, h float64) { out = append(out, scored{text: text, h: h}) }
	c := g.Concl

	switch c.Kind {
	case kernel.FForall, kernel.FImpl:
		add("intros.", 2.6)
	case kernel.FNot:
		add("intro.", 2.2)
	case kernel.FAnd:
		add("split.", 2.5)
	case kernel.FIff:
		add("split.", 2.2)
	case kernel.FOr:
		add("left.", 1.1)
		add("right.", 1.0)
	case kernel.FTrue:
		add("constructor.", 3.0)
	case kernel.FFalse:
		add("contradiction.", 1.4)
	case kernel.FEq:
		add("reflexivity.", 2.1)
		add("simpl.", 1.4)
		add("symmetry.", 0.2)
		add("congruence.", 0.6)
		if c.T1.IsApp() && c.T2.IsApp() && c.T1.Fun == c.T2.Fun && len(c.T1.Args) == len(c.T2.Args) {
			add("f_equal.", 1.0)
		}
	case kernel.FExists:
		for _, v := range g.Vars {
			if c.BType == nil || v.Type == nil || v.Type.Name == c.BType.Name {
				add("exists "+v.Name+".", 1.5)
			}
		}
		add("exists 0.", 0.6)
		add("exists nil.", 0.5)
	case kernel.FPred:
		if _, isInd := m.Env.Preds[c.Pred]; isInd {
			add("constructor.", 1.7)
			add("econstructor.", 1.0)
		}
		if _, isDef := m.Env.Defs[c.Pred]; isDef {
			add("unfold "+c.Pred+".", 1.8)
		}
	}

	arithHyps := false
	for _, h := range g.Hyps {
		if looksArith(h.Form) {
			arithHyps = true
			break
		}
	}
	switch {
	case looksArith(c) && arithHyps:
		add("omega.", 1.9)
	case looksArith(c):
		add("omega.", 1.3)
	case arithHyps && (c.Kind == kernel.FEq || c.Kind == kernel.FFalse || c.Kind == kernel.FNot || c.Kind == kernel.FPred):
		add("omega.", 1.4)
	}
	add("auto.", 1.2)
	add("eauto.", 0.9)

	// Hypothesis-directed moves.
	substUseful := false
	gh := goalHead(c)
	ck := c.FingerprintKey()
	for _, h := range g.Hyps {
		switch h.Form.Kind {
		case kernel.FFalse:
			add("contradiction.", 3.0)
		case kernel.FAnd, kernel.FExists, kernel.FOr:
			add("destruct "+h.Name+".", 1.6)
			add("inversion "+h.Name+".", 0.6)
		case kernel.FIff:
			add("destruct "+h.Name+".", 1.2)
		case kernel.FEq:
			if h.Form.T1.IsVar() || h.Form.T2.IsVar() {
				substUseful = true
			}
			add("rewrite "+h.Name+".", 1.1)
			add("rewrite <- "+h.Name+".", 0.5)
			add("rewrite "+h.Name+" in *.", 0.1) // unsupported form: realistic junk
			if h.Form.T1.IsApp() && h.Form.T2.IsApp() && m.Env.IsConstructor(h.Form.T1.Fun) && m.Env.IsConstructor(h.Form.T2.Fun) {
				if h.Form.T1.Fun != h.Form.T2.Fun {
					add("discriminate "+h.Name+".", 2.6)
				} else {
					add("inversion "+h.Name+".", 1.6)
				}
			}
			add("simpl in "+h.Name+".", 0.5)
		case kernel.FPred:
			if _, isInd := m.Env.Preds[h.Form.Pred]; isInd {
				w := 1.0
				for _, a := range h.Form.Args {
					if a.IsApp() && m.Env.IsConstructor(a.Fun) {
						w = 1.8
						break
					}
				}
				add("inversion "+h.Name+".", w)
				add("induction "+h.Name+".", 0.8)
			}
			if _, isDef := m.Env.Defs[h.Form.Pred]; isDef {
				add("unfold "+h.Form.Pred+" in "+h.Name+".", 1.4)
			}
			add("simpl in "+h.Name+".", 0.4)
		case kernel.FForall, kernel.FImpl:
			if conclHead(h.Form) == gh {
				add("apply "+h.Name+".", 1.9)
				add("eapply "+h.Name+".", 1.1)
			} else {
				add("apply "+h.Name+".", 0.5)
			}
			// Quantified equations (induction hypotheses above all) are
			// rewriting material.
			if conclHead(h.Form) == "=" {
				w := 1.4
				if strings.HasPrefix(h.Name, "IH") {
					w = 2.1
				}
				add("rewrite "+h.Name+".", w)
				add("rewrite <- "+h.Name+".", 0.4*w)
			}
		case kernel.FNot:
			if c.Kind == kernel.FFalse {
				add("apply "+h.Name+".", 2.0)
			}
		}
		if h.Form.FingerprintKey() == ck {
			add("assumption.", 3.2)
		}
	}
	if substUseful {
		add("subst.", 1.9)
	}

	// Variable-directed induction/destruct. A variable scrutinized by a
	// recursive function in the goal is the prime induction candidate.
	goalVars := c.FreeVars()
	recArgs := m.recursiveArgVars(c)
	for _, v := range g.Vars {
		if v.Type == nil || v.Type.TVar {
			continue
		}
		if _, isData := m.Env.Datatypes[v.Type.Name]; !isData {
			continue
		}
		switch {
		case recArgs[v.Name]:
			add("induction "+v.Name+".", 2.2)
			add("destruct "+v.Name+".", 1.0)
		case goalVars[v.Name]:
			add("induction "+v.Name+".", 1.1)
			add("destruct "+v.Name+".", 0.9)
		default:
			add("destruct "+v.Name+".", 0.1)
		}
	}
	// Induction on a not-yet-introduced leading binder (skipping type
	// binders, which are not inductive).
	if c.Kind == kernel.FForall {
		body := c
		seen := 0
		for body != nil && body.Kind == kernel.FForall && seen < 3 {
			if !body.BType.IsType() {
				w := 1.0
				if recArgs[body.Binder] {
					w = 2.0
				}
				add("induction "+body.Binder+".", w)
				seen++
			}
			body = body.Body
		}
	}

	// simpl when computation is visible.
	m.symBuf = appendSymbols(m.symBuf[:0], c)
	for _, s := range m.symBuf {
		if _, isFun := m.Env.Funs[s]; isFun {
			add("simpl.", 1.3)
			break
		}
	}

	// Stuck matches invite case analysis on the scrutinee (the
	// `destruct (eqb a n) eqn:He` idiom).
	for _, scrut := range stuckScrutinees(c, 2) {
		add("destruct ("+scrut+") eqn:He.", 2.0)
	}
	for _, h := range g.Hyps {
		for _, scrut := range stuckScrutinees(h.Form, 1) {
			add("destruct ("+scrut+") eqn:He.", 1.3)
		}
	}

	// Targeted rewriting: an equation hypothesis whose left-hand side
	// occurs in another hypothesis or in the goal.
	for _, e := range g.Hyps {
		if e.Form.Kind != kernel.FEq || !e.Form.T1.IsApp() || len(e.Form.T1.Args) == 0 {
			continue
		}
		lhs := e.Form.T1
		if formContainsTerm(c, lhs) {
			add("rewrite "+e.Name+".", 2.0)
		}
		for _, h := range g.Hyps {
			if h.Name == e.Name {
				continue
			}
			if formContainsTerm(h.Form, lhs) {
				add("rewrite "+e.Name+" in "+h.Name+".", 1.8)
			}
		}
	}
	return out
}

// stuckScrutinees collects the printable scrutinees of up to max stuck
// matches in a formula.
func stuckScrutinees(f *kernel.Form, max int) []string {
	var out []string
	var scanTerm func(t *kernel.Term)
	scanTerm = func(t *kernel.Term) {
		t.Subterms(func(u *kernel.Term) bool {
			if len(out) >= max {
				return false
			}
			if u.Match != nil && !u.Match.Scrut.IsVar() {
				// Only propose scrutinees that print as plain applications.
				if u.Match.Scrut.IsApp() {
					out = append(out, u.Match.Scrut.String())
				}
			}
			return true
		})
	}
	var walk func(f *kernel.Form)
	walk = func(f *kernel.Form) {
		if f == nil || len(out) >= max {
			return
		}
		switch f.Kind {
		case kernel.FEq:
			scanTerm(f.T1)
			scanTerm(f.T2)
		case kernel.FPred:
			for _, a := range f.Args {
				scanTerm(a)
			}
		case kernel.FNot:
			walk(f.L)
		case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
			walk(f.L)
			walk(f.R)
		}
	}
	walk(f)
	return out
}

// formContainsTerm reports whether t occurs in any term position of f.
func formContainsTerm(f *kernel.Form, t *kernel.Term) bool {
	found := false
	check := func(u *kernel.Term) {
		if found {
			return
		}
		u.Subterms(func(x *kernel.Term) bool {
			if x.Equal(t) {
				found = true
				return false
			}
			return true
		})
	}
	var walk func(f *kernel.Form)
	walk = func(f *kernel.Form) {
		if f == nil || found {
			return
		}
		switch f.Kind {
		case kernel.FEq:
			check(f.T1)
			check(f.T2)
		case kernel.FPred:
			for _, a := range f.Args {
				check(a)
			}
		case kernel.FNot:
			walk(f.L)
		case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
			walk(f.L)
			walk(f.R)
		case kernel.FForall, kernel.FExists:
			walk(f.Body)
		}
	}
	walk(f)
	return found
}

// recursiveArgVars returns the variables that occur as arguments of
// recursive function applications anywhere in the formula — the natural
// induction candidates.
func (m *Model) recursiveArgVars(f *kernel.Form) map[string]bool {
	out := map[string]bool{}
	var scanTerm func(t *kernel.Term)
	scanTerm = func(t *kernel.Term) {
		t.Subterms(func(u *kernel.Term) bool {
			if u.IsApp() {
				if fd, ok := m.Env.Funs[u.Fun]; ok && fd.Recursive {
					for _, a := range u.Args {
						if a.IsVar() {
							out[a.Var] = true
						}
					}
				}
			}
			return true
		})
	}
	var walk func(f *kernel.Form)
	walk = func(f *kernel.Form) {
		if f == nil {
			return
		}
		switch f.Kind {
		case kernel.FEq:
			scanTerm(f.T1)
			scanTerm(f.T2)
		case kernel.FPred:
			for _, a := range f.Args {
				scanTerm(a)
			}
		case kernel.FNot:
			walk(f.L)
		case kernel.FAnd, kernel.FOr, kernel.FImpl, kernel.FIff:
			walk(f.L)
			walk(f.R)
		case kernel.FForall, kernel.FExists:
			walk(f.Body)
		}
	}
	walk(f)
	return out
}

// ---------------------------------------------------------------------------
// Noise

var junkTactics = []string{
	"ring.", "field.", "firstorder.", "tauto.", "cbv.", "trivial.",
	"intuition.", "easy.", "now auto.", "simpl in *.",
}

// junkHypApply pre-renders the "apply H<d>." junk family.
var junkHypApply = func() [9]string {
	var t [9]string
	for i := range t {
		t[i] = fmt.Sprintf("apply H%d.", i)
	}
	return t
}()

func (m *Model) junk(out []scored, p *prompt.Prompt, rng *rand.Rand) []scored {
	prof := m.Profile
	nJunk := int(math.Round(prof.NoiseRate * 10))
	level := 3.4 * prof.NoiseRate
	for i := 0; i < nJunk; i++ {
		u := (0.4 + rng.Float64()) * level
		switch rng.Intn(4) {
		case 0:
			out = append(out, scored{text: junkTactics[rng.Intn(len(junkTactics))], j: u})
		case 1:
			// Apply a random visible lemma regardless of relevance.
			out = m.junkLemma(out, p, rng, verbApply, u)
		case 2:
			out = m.junkLemma(out, p, rng, verbRewrite, u)
		default:
			// Reference a plausible but possibly absent hypothesis.
			out = append(out, scored{text: junkHypApply[rng.Intn(9)], j: u})
		}
	}
	return out
}

// junkLemma appends "apply L." or "rewrite L." for a random visible lemma
// L, keyed through the lemma's retrieval record when it has one.
func (m *Model) junkLemma(out []scored, p *prompt.Prompt, rng *rand.Rand, verb int, u float64) []scored {
	recs := m.retr.lemmaRec
	if len(recs) == 0 {
		return out
	}
	i := rng.Intn(len(recs))
	if r := recs[i]; r >= 0 {
		return append(out, scored{text: m.retr.lems[r].st.keys[verb], slot: slot(int(r), verb), j: u})
	}
	head := "apply "
	if verb == verbRewrite {
		head = "rewrite "
	}
	return append(out, scored{text: head + p.LemmaNames()[i] + ".", j: u})
}
