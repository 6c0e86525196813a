// Persistent proof-cache integration: the eval layer is where the on-disk
// store (internal/store) meets the search stack. Outcome records let a warm
// re-sweep skip whole searches; Try records pre-warm the in-memory TryCache
// so even a changed sweep reuses every negative tactic verdict it can.
// Everything here runs off the search hot path: warm records are
// bulk-loaded before a search starts, and new results drain out through
// the store's write-behind appender.

package eval

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"llmfscq/internal/checker"
	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/store"
	"llmfscq/internal/tactic"
	"llmfscq/internal/textmetrics"
	"llmfscq/internal/tokenizer"
)

// Key-hasher tags for the persistence fingerprints (arbitrary, fixed).
const (
	tagHintSet = 0x6c667371_68696e74 // "lfsq hint"
	tagEnvFP   = 0x6c667371_656e7666 // "lfsq envf"
)

// persistIndex is the Runner's shared persistence bookkeeping, behind a
// pointer like envIndex so ablation copies keep sharing it.
type persistIndex struct {
	hintOnce sync.Once
	hintFP   [2]uint64

	mu sync.Mutex
	// envFP maps every environment that ran a persisted search to its
	// fingerprint, for the end-of-run Try drain.
	envFP map[*kernel.Env][2]uint64
	// warmed marks environments whose Try records were already loaded.
	warmed map[*kernel.Env]bool
	// profFP memoizes profile fingerprints by name.
	profFP map[string]uint64
}

func newPersistIndex() *persistIndex {
	return &persistIndex{
		envFP:  map[*kernel.Env][2]uint64{},
		warmed: map[*kernel.Env]bool{},
		profFP: map[string]uint64{},
	}
}

// hintFingerprint hashes the sorted hint-set membership: prompts, n-gram
// statistics, and the test set all derive from it, so it belongs in the
// environment fingerprint alongside the theorem name.
func (r *Runner) hintFingerprint() [2]uint64 {
	r.persist.hintOnce.Do(func() {
		names := make([]string, 0, len(r.HintSet))
		for n, ok := range r.HintSet {
			if ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		kh := kernel.NewKeyHasher(tagHintSet)
		for _, n := range names {
			kh.Str(n)
		}
		r.persist.hintFP = kh.Sum()
	})
	return r.persist.hintFP
}

// envFingerprint identifies the restricted environment a theorem's search
// runs in: the hint split plus the theorem's corpus position (the
// declaration prefix is a pure function of the name, given the corpus hash
// that already prefixes every store key).
func (r *Runner) envFingerprint(th *corpus.Theorem) [2]uint64 {
	kh := kernel.NewKeyHasher(tagEnvFP)
	kh.Pair(r.hintFingerprint())
	kh.Str(th.Name)
	return kh.Sum()
}

// profileFingerprint hashes every calibration constant of a model profile:
// a tuning change must miss, same as a corpus edit.
func (r *Runner) profileFingerprint(p model.Profile) uint64 {
	r.persist.mu.Lock()
	if fp, ok := r.persist.profFP[p.Name]; ok {
		r.persist.mu.Unlock()
		return fp
	}
	r.persist.mu.Unlock()
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(p.Name))
	h.Write([]byte{0})
	word(uint64(p.ContextWindow))
	word(uint64(p.MaxOutputs))
	word(math.Float64bits(p.HeuristicSkill))
	word(math.Float64bits(p.RetrievalSkill))
	word(math.Float64bits(p.HintBoost))
	word(math.Float64bits(p.Temperature))
	word(math.Float64bits(p.NoiseRate))
	word(math.Float64bits(p.DistractionHalfLife))
	fp := h.Sum64()
	r.persist.mu.Lock()
	r.persist.profFP[p.Name] = fp
	r.persist.mu.Unlock()
	return fp
}

// searchName names the search algorithm for the outcome key. A custom
// Search func without a declared SearchName cannot be fingerprinted, so it
// disables outcome persistence rather than risking a cross-algorithm hit.
func (r *Runner) searchName() string {
	if r.Search == nil {
		return "best-first"
	}
	return r.SearchName
}

// effectiveBudget mirrors core.Config.defaults: the key must hold the
// hyperparameters the search actually ran with.
func (r *Runner) effectiveBudget() (width, fuel int) {
	width, fuel = r.Width, r.QueryLimit
	if width <= 0 {
		width = 8
	}
	if fuel <= 0 {
		fuel = 128
	}
	return width, fuel
}

// outcomeKey builds the persistent key of one (theorem, model, setting,
// variant) search. ok is false when outcome persistence is off for this
// run (no store, or an anonymous custom search).
func (r *Runner) outcomeKey(prof model.Profile, settingStr, variant, search string, th *corpus.Theorem, env *kernel.Env) (store.OutcomeKey, bool) {
	if r.ProofStore == nil || r.persist == nil || search == "" {
		return store.OutcomeKey{}, false
	}
	return r.unitKey(prof, settingStr, variant, search, th, env), true
}

// unitKey computes the outcome key of one search: what the proof store
// files its outcome under, and what a fleet worker must agree on before it
// runs the unit.
func (r *Runner) unitKey(prof model.Profile, settingStr, variant, search string, th *corpus.Theorem, env *kernel.Env) store.OutcomeKey {
	width, fuel := r.effectiveBudget()
	root := tactic.NewState(env, th.Stmt).StrictKey()
	return store.OutcomeKey{
		Env:     r.envFingerprint(th),
		Root:    root,
		Profile: r.profileFingerprint(prof),
		Setting: settingStr,
		Variant: variant,
		Search:  search,
		Width:   width,
		Fuel:    fuel,
		Seed:    r.Seed,
	}
}

// rebuildOutcome reconstructs a full Outcome from its persisted record.
// Only the search's irreproducible results are stored (status, query
// count, proof script); every derived metric is recomputed here with the
// same code the cold path uses, so a warm Outcome is equal by construction
// — the property the mirror sample cross-checks.
func (r *Runner) rebuildOutcome(prof model.Profile, settingStr string, th *corpus.Theorem, rec store.OutcomeRec) Outcome {
	out := Outcome{
		Theorem:     th.Name,
		File:        th.File,
		Category:    th.Category,
		Model:       prof.Name,
		Setting:     settingStr,
		Status:      core.Status(rec.Status),
		Queries:     rec.Queries,
		HumanTokens: tokenizer.Count(th.Proof),
	}
	if out.Status == core.Proved {
		out.Proof = rec.Proof
		out.GenTokens = tokenizer.Count(out.Proof)
		out.Similarity = textmetrics.Similarity(out.Proof, th.Proof)
		out.RelLength = textmetrics.RelativeLength(out.Proof, th.Proof)
	}
	return out
}

// notePersistEnv registers env for the end-of-run Try drain and pre-warms
// the in-memory TryCache with its persisted Try records, once per env.
// Warming happens here — off the hot path, before the search starts — so
// the search's cache lookups stay allocation-free and unchanged.
func (r *Runner) notePersistEnv(env *kernel.Env, fp [2]uint64) {
	p := r.persist
	p.mu.Lock()
	p.envFP[env] = fp
	warm := !p.warmed[env]
	p.warmed[env] = true
	p.mu.Unlock()
	if !warm {
		return
	}
	tc := r.tryCache()
	if tc == nil {
		return
	}
	for _, rec := range r.ProofStore.TryRecords(fp) {
		var err error
		if rec.Msg != "" {
			err = checker.StoredError(rec.Msg)
		}
		tc.Warm(env, rec.State, rec.Sentence, checker.Step{
			Status:    checker.Status(rec.Status),
			Err:       err,
			FromStore: true,
		})
	}
}

// FlushProofStore drains the run's new negative Try results into the
// persistent store and flushes the write-behind queue. Call once at end of
// run, before reading stats or closing the store. Only Rejected/Timeout
// steps executed this run (FromStore false) are persisted: Applied steps
// need their successor state, which is cheaper to recompute than to
// serialize, and rehydrated steps are already on disk.
func (r *Runner) FlushProofStore() {
	ps := r.ProofStore
	if ps == nil {
		return
	}
	tc := r.tryCache()
	if tc != nil {
		type tryOut struct {
			fp  [2]uint64
			rec store.TryRec
		}
		var all []tryOut
		fps := map[*kernel.Env][2]uint64{}
		r.persist.mu.Lock()
		for env, fp := range r.persist.envFP {
			fps[env] = fp
		}
		r.persist.mu.Unlock()
		tc.Range(func(env *kernel.Env, state [2]uint64, sentence string, step checker.Step) {
			if step.FromStore || (step.Status != checker.Rejected && step.Status != checker.Timeout) {
				return
			}
			fp, ok := fps[env]
			if !ok {
				return // env never ran a persisted search (no fingerprint)
			}
			msg := ""
			if step.Err != nil {
				msg = step.Err.Error()
			}
			all = append(all, tryOut{fp: fp, rec: store.TryRec{
				State: state, Sentence: sentence, Status: uint8(step.Status), Msg: msg,
			}})
		})
		// Deterministic drain order, and a periodic flush so a large drain
		// cannot overflow the write-behind queue into drops.
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.fp != b.fp {
				return a.fp[0] < b.fp[0] || (a.fp[0] == b.fp[0] && a.fp[1] < b.fp[1])
			}
			if a.rec.State != b.rec.State {
				return a.rec.State[0] < b.rec.State[0] ||
					(a.rec.State[0] == b.rec.State[0] && a.rec.State[1] < b.rec.State[1])
			}
			return a.rec.Sentence < b.rec.Sentence
		})
		for i, d := range all {
			ps.RecordTry(d.fp, d.rec)
			if i%2048 == 2047 {
				ps.Flush()
			}
		}
	}
	ps.Flush()
}

// ProofStoreMismatches totals the mirror cross-check failures of both
// tiers: outcome-level (store) and Try-level (TryCache). Any nonzero value
// means a persisted result disagreed with a live recomputation — corrupt
// storage or broken determinism — and the run must not pass silently.
func (r *Runner) ProofStoreMismatches() int64 {
	var n int64
	if r.ProofStore != nil {
		n += r.ProofStore.Mismatches()
	}
	if tc := r.tryCache(); tc != nil {
		_, mm := tc.MirrorStats()
		n += mm
	}
	return n
}

// tryStatsJSON is the in-memory tier of the cache-stats line.
type tryStatsJSON struct {
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	Evicted          int64 `json:"evicted"`
	Entries          int64 `json:"entries"`
	MirrorChecks     int64 `json:"mirror_checks"`
	MirrorMismatches int64 `json:"mirror_mismatches"`
}

// CacheStatsJSON renders the run's single structured cache-stats line:
// the in-memory TryCache tier and the persistent store tier together,
// scrapeable by scripts/bench.sh. Returns "" when neither tier is active.
func (r *Runner) CacheStatsJSON() string {
	line := struct {
		Event      string            `json:"event"`
		Try        *tryStatsJSON     `json:"try,omitempty"`
		Persistent *store.CacheStats `json:"persistent,omitempty"`
	}{Event: "cache-stats"}
	if tc := r.tryCache(); tc != nil {
		hits, misses, evicted, entries := tc.Stats()
		checks, mm := tc.MirrorStats()
		line.Try = &tryStatsJSON{
			Hits: hits, Misses: misses, Evicted: evicted, Entries: entries,
			MirrorChecks: checks, MirrorMismatches: mm,
		}
	}
	if r.ProofStore != nil {
		st := r.ProofStore.Stats()
		line.Persistent = &st
	}
	if line.Try == nil && line.Persistent == nil {
		return ""
	}
	b, err := json.Marshal(line)
	if err != nil {
		return ""
	}
	return string(b)
}
