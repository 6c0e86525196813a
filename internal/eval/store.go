// Persistent proof-cache integration: the eval layer is where the on-disk
// store (internal/store) meets the search stack. Outcome records let a warm
// re-sweep skip whole searches. Everything here runs off the search hot
// path: a record is looked up before a search starts, and new results
// drain out through the store's write-behind appender.

package eval

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/store"
	"llmfscq/internal/tactic"
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
	// profFP memoizes profile fingerprints by name.
	profFP map[string]uint64
}

func newPersistIndex() *persistIndex {
	return &persistIndex{profFP: map[string]uint64{}}
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
	if r.ProofStore == nil || search == "" {
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

// FlushProofStore flushes the store's write-behind queue. Call once at end
// of run, before reading stats or closing the store.
func (r *Runner) FlushProofStore() {
	if r.ProofStore != nil {
		r.ProofStore.Flush()
	}
}

// ProofStoreMismatches counts the outcome mirror cross-check failures. Any
// nonzero value means a persisted result disagreed with a live
// recomputation — corrupt storage or broken determinism — and the run must
// not pass silently.
func (r *Runner) ProofStoreMismatches() int64 {
	if r.ProofStore == nil {
		return 0
	}
	return r.ProofStore.Mismatches()
}

// CacheStatsJSON renders the run's single structured cache-stats line for
// the persistent store, scrapeable by scripts/bench.sh. Returns "" when no
// store is open.
func (r *Runner) CacheStatsJSON() string {
	if r.ProofStore == nil {
		return ""
	}
	st := r.ProofStore.Stats()
	line := struct {
		Event      string            `json:"event"`
		Persistent *store.CacheStats `json:"persistent"`
	}{Event: "cache-stats", Persistent: &st}
	b, err := json.Marshal(line)
	if err != nil {
		return ""
	}
	return string(b)
}
