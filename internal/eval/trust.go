// The trust layer: the one path by which a (status, queries, proof) record
// becomes an Outcome that counts. A record comes from one of three
// sources — a search this process just ran, a proof-store hit, or a fleet
// worker's answer — and every source is checked the same way, in order:
//
//  1. certify: the status is known, the query count is within the budget,
//     and a Proved script replays through the kernel from the root in the
//     theorem's restricted environment. This is Coq's Qed discipline: a
//     proof counts because the kernel re-checks it, not because a search,
//     a disk or a worker says so.
//  2. rebuildOutcome: every derived metric is computed from the record
//     here and nowhere else, so a record cannot disagree with its script
//     and a warm or remote Outcome equals a cold one by construction.
//  3. For records from outside this process, a deterministic key-hash
//     mirror sample (store.MirrorPick) recomputes the unit and compares.
//
// A record that fails certification never counts. A foreign record is
// replaced by the local recomputation; an own record's claim is withdrawn
// (Stuck, not persisted). Either way the failure is counted on the Runner
// (ReplayFailures), and the run must fail at its end.

package eval

import (
	"errors"
	"fmt"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/model"
	"llmfscq/internal/store"
	"llmfscq/internal/tactic"
	"llmfscq/internal/textmetrics"
	"llmfscq/internal/tokenizer"
)

// Certification failures. Either means a record is wrong — corrupt
// storage, a broken or lying worker, a broken search, or nondeterminism —
// and must fail the run.
var (
	// ErrReplay: a record that cannot be certified — a Proved script the
	// kernel rejects, or a status or query count no search can produce.
	ErrReplay = errors.New("eval: record failed kernel replay")
	// ErrMismatch: a sampled foreign record that differs from the local
	// recomputation of its unit.
	ErrMismatch = errors.New("eval: record disagrees with local recomputation")
)

// source says where a record came from.
type source uint8

const (
	ownSearch    source = iota // a search this process just ran
	storeHit                   // a record read back from the proof store
	workerAnswer               // a fleet worker's answer
)

// task is one search as the trust layer sees it: the identity its Outcome
// carries, the bound on its query count, its persistent key, and how to
// run it in this process.
type task struct {
	prof    model.Profile
	setting string // the Outcome's Setting
	th      *corpus.Theorem
	fuel    int
	// key files the outcome in the proof store (when persist) and picks
	// the mirror sample.
	key     store.OutcomeKey
	persist bool
	run     func() store.OutcomeRec
}

// settle looks the task up in the proof store, else runs it; either
// record counts only through accept. Failures are already counted (replay
// failures on the Runner, store mirror mismatches on the store), so the
// error is dropped here.
func (r *Runner) settle(t *task) Outcome {
	if t.persist {
		if rec, ok := r.ProofStore.LookupOutcome(t.key); ok {
			out, _ := r.accept(t, storeHit, rec)
			return out
		}
	}
	out, _ := r.accept(t, ownSearch, t.run())
	return out
}

// accept turns a record from src into the Outcome that counts: certify,
// rebuild, and — for foreign records in the mirror sample — recompute and
// compare. The error wraps ErrReplay or ErrMismatch; the returned Outcome
// is then the trusted replacement. A record that counts is filed in the
// proof store unless it came from there.
func (r *Runner) accept(t *task, src source, rec store.OutcomeRec) (Outcome, error) {
	if err := r.certify(t, rec); err != nil {
		r.replayFails.Add(1)
		err = fmt.Errorf("%w: %s (%s, %s): %v", ErrReplay, t.th.Name, t.prof.Name, t.setting, err)
		if src == ownSearch {
			return rebuildOutcome(t, store.OutcomeRec{Status: uint8(core.Stuck), Queries: rec.Queries}), err
		}
		local, _ := r.accept(t, ownSearch, t.run())
		return local, err
	}
	out := rebuildOutcome(t, rec)
	if r.mirrored(t, src) {
		local, err := r.accept(t, ownSearch, t.run())
		if src == storeHit {
			r.ProofStore.NoteMirror(local == out)
		}
		if err == nil && local != out {
			err = fmt.Errorf("%w: %s (%s, %s): record %v after %d queries, local %v after %d",
				ErrMismatch, t.th.Name, t.prof.Name, t.setting, out.Status, out.Queries, local.Status, local.Queries)
		}
		return local, err
	}
	if t.persist && src != storeHit {
		r.ProofStore.RecordOutcome(t.key, rec)
	}
	return out, nil
}

// mirrored reports whether a record from src falls in its source's mirror
// sample: the store's configured rate for store hits, UnitMirrorDen for
// worker answers, never for this process's own searches.
func (r *Runner) mirrored(t *task, src source) bool {
	switch src {
	case storeHit:
		return r.ProofStore.MirrorOutcome(t.key)
	case workerAnswer:
		return store.MirrorPick(r.Corpus.Hash, t.key, UnitMirrorDen)
	}
	return false
}

// certify checks what can be checked of a record without rerunning its
// search: a known status, a query count within the budget, and — the
// trust base — a Proved script that the kernel replays from the root.
func (r *Runner) certify(t *task, rec store.OutcomeRec) error {
	if rec.Queries < 0 || rec.Queries > t.fuel {
		return fmt.Errorf("query count %d outside [0, %d]", rec.Queries, t.fuel)
	}
	switch core.Status(rec.Status) {
	case core.Proved:
		return tactic.CheckProof(r.RestrictEnv(t.th), t.th.Stmt, rec.Proof)
	case core.Stuck, core.Fuelout:
		if rec.Proof != "" {
			return errors.New("unproved record carries a proof")
		}
		return nil
	}
	return fmt.Errorf("unknown status %d", rec.Status)
}

// rebuildOutcome builds the Outcome of a certified record. Only the
// search's irreproducible results are recorded (status, query count, proof
// script); every derived metric is computed here, the one place that does.
func rebuildOutcome(t *task, rec store.OutcomeRec) Outcome {
	out := Outcome{
		Theorem:     t.th.Name,
		File:        t.th.File,
		Category:    t.th.Category,
		Model:       t.prof.Name,
		Setting:     t.setting,
		Status:      core.Status(rec.Status),
		Queries:     rec.Queries,
		HumanTokens: tokenizer.Count(t.th.Proof),
	}
	if out.Status == core.Proved {
		out.Proof = rec.Proof
		out.GenTokens = tokenizer.Count(out.Proof)
		out.Similarity = textmetrics.Similarity(out.Proof, t.th.Proof)
		out.RelLength = textmetrics.RelativeLength(out.Proof, t.th.Proof)
	}
	return out
}

// ReplayFailures counts the records, from any source, that failed
// certification in this run (shared by every copy of the Runner). Any
// nonzero value means a proof counted by a search, the store or a worker
// did not survive kernel replay, and the run must not pass silently.
func (r *Runner) ReplayFailures() int64 {
	return r.replayFails.Load()
}
