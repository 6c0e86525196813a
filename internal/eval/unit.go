// Whole-unit offload: the eval half of the distributed sweep. The
// coordinator prepares a grid unit as a wire request (UnitRequest), a
// worker runs it through its own Runner (UnitHandler), and the coordinator
// certifies the returned record before it counts (AcceptUnit). A worker's
// record is untrusted, exactly like a record read back from the proof
// store, and goes through the same trust layer (trust.go).

package eval

import (
	"fmt"
	"sync"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/protocol"
	"llmfscq/internal/store"
)

// UnitMirrorDen samples roughly one remote unit in UnitMirrorDen for a
// local recomputation, with the store's mirror rule (store.MirrorPick):
// the same units are sampled on every run, whatever the schedule.
const UnitMirrorDen = 16

// unitVariant is the experiment variant a grid unit runs (RunTheorem's).
const unitVariant = "std"

// searches maps every persistable search name to its algorithm; only
// these can be named on the wire.
var searches = map[string]func(core.Config) core.Result{
	"best-first": core.BestFirst,
	"linear":     core.Linear,
	"greedy":     core.Greedy,
}

// UnitRequest prepares grid unit u for a remote worker. ok is false when
// the unit must run in process instead: its search algorithm cannot be
// named on the wire, or the proof store already holds its outcome (the
// warm path answers it, mirror sample included).
func (r *Runner) UnitRequest(jobs []GridJob, u GridUnit) (req protocol.UnitRequest, ok bool) {
	search := r.searchName()
	if _, known := searches[search]; !known {
		return req, false
	}
	j := jobs[u.Job]
	th := j.Theorems[u.Th]
	key := r.unitKey(j.Profile, j.Setting.String(), unitVariant, search, th, r.RestrictEnv(th))
	if r.ProofStore != nil && r.ProofStore.HasOutcome(key) {
		return req, false
	}
	return protocol.UnitRequest{Corpus: r.Corpus.Hash, Key: key, Theorem: th.Name, Model: j.Profile.Name}, true
}

// AcceptUnit certifies a worker's record for unit u through the trust
// layer (accept) and returns the unit's Outcome. On a failure (an error
// wrapping ErrReplay or ErrMismatch) the returned Outcome is the local
// recomputation, so the tables stay right while the caller fails the run.
// An accepted record is filed in the proof store, when there is one, like
// a cold result.
func (r *Runner) AcceptUnit(jobs []GridJob, u GridUnit, req protocol.UnitRequest, rec store.OutcomeRec) (Outcome, error) {
	j := jobs[u.Job]
	t := r.searchTask(j.Profile, j.Setting, j.Theorems[u.Th], unitVariant, (*prompt.Builder).Build)
	t.key = req.Key
	return r.accept(t, workerAnswer, rec)
}

// UnitHandler is the worker side of the RunUnit op
// (protocol.UnitHandler): it runs whole grid units over one corpus,
// keeping one Runner — and so one set of prompt, environment, and
// retrieval caches — per (seed, width, fuel, search) configuration it has
// been asked for. Safe for concurrent use; one handler can serve every
// connection of every server in a process.
type UnitHandler struct {
	corpus *corpus.Corpus

	mu      sync.Mutex
	runners map[unitConfig]*Runner
}

// unitConfig is what a unit's Runner depends on beyond the corpus.
type unitConfig struct {
	seed        int64
	width, fuel int
	search      string
}

// NewUnitHandler builds a unit handler over c.
func NewUnitHandler(c *corpus.Corpus) *UnitHandler {
	return &UnitHandler{corpus: c, runners: map[unitConfig]*Runner{}}
}

func (h *UnitHandler) runner(cfg unitConfig) *Runner {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.runners[cfg]
	if !ok {
		r = NewRunner(h.corpus, cfg.seed)
		r.Width, r.QueryLimit = cfg.width, cfg.fuel
		if cfg.search != "best-first" {
			r.Search, r.SearchName = searches[cfg.search], cfg.search
		}
		h.runners[cfg] = r
	}
	return r
}

// RunUnit runs one unit and returns its store record. It first recomputes
// the unit's outcome key from its own corpus and configuration and refuses
// (protocol.ErrRefused) a request whose key differs: a corpus,
// hint-split, profile-calibration, or search mismatch with the
// coordinator must never turn into a silently different table.
func (h *UnitHandler) RunUnit(req protocol.UnitRequest) (store.OutcomeRec, error) {
	refuse := func(format string, args ...any) (store.OutcomeRec, error) {
		return store.OutcomeRec{}, fmt.Errorf("%w: %s", protocol.ErrRefused, fmt.Sprintf(format, args...))
	}
	k := req.Key
	if req.Corpus != h.corpus.Hash {
		return refuse("corpus hash %016x%016x, worker serves %016x%016x",
			req.Corpus[0], req.Corpus[1], h.corpus.Hash[0], h.corpus.Hash[1])
	}
	if _, ok := searches[k.Search]; !ok {
		return refuse("unknown search %q", k.Search)
	}
	if k.Variant != unitVariant {
		return refuse("unsupported variant %q", k.Variant)
	}
	if k.Width <= 0 || k.Fuel <= 0 {
		return refuse("width %d and fuel %d must be positive", k.Width, k.Fuel)
	}
	th, ok := h.corpus.TheoremNamed(req.Theorem)
	if !ok {
		return refuse("unknown theorem %q", req.Theorem)
	}
	prof, ok := profileNamed(req.Model)
	if !ok {
		return refuse("unknown model profile %q", req.Model)
	}
	setting, ok := settingNamed(k.Setting)
	if !ok {
		return refuse("unknown prompt setting %q", k.Setting)
	}
	r := h.runner(unitConfig{seed: k.Seed, width: k.Width, fuel: k.Fuel, search: k.Search})
	if want := r.unitKey(prof, k.Setting, unitVariant, k.Search, th, r.RestrictEnv(th)); want != k {
		return refuse("outcome key of %s (%s, %s) differs: %s", th.Name, prof.Name, k.Setting, keyDiff(k, want))
	}
	out := r.RunTheorem(prof, setting, th)
	return store.OutcomeRec{Status: uint8(out.Status), Queries: out.Queries, Proof: out.Proof}, nil
}

// keyDiff names the fields in which a requested key differs from the
// worker's, in terms of what they fingerprint.
func keyDiff(got, want store.OutcomeKey) string {
	var diff []string
	if got.Env != want.Env {
		diff = append(diff, "hint split")
	}
	if got.Root != want.Root {
		diff = append(diff, "theorem statement")
	}
	if got.Profile != want.Profile {
		diff = append(diff, "profile calibration")
	}
	return fmt.Sprint(diff)
}

// profileNamed returns the paper profile with exactly this name.
func profileNamed(name string) (model.Profile, bool) {
	for _, p := range model.Paper() {
		if p.Name == name {
			return p, true
		}
	}
	return model.Profile{}, false
}

// settingNamed parses a prompt setting's String form.
func settingNamed(name string) (prompt.Setting, bool) {
	for _, s := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}
