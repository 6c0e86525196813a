package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/faultpoint"
	"llmfscq/internal/protocol"
	"llmfscq/internal/remote"
	"llmfscq/internal/store"
)

// lyingHandler serves units through the honest handler, then lets tamper
// rewrite the record before it goes on the wire — a worker that is buggy
// or malicious, not one with a bad network.
type lyingHandler struct {
	honest *eval.UnitHandler
	tamper func(req protocol.UnitRequest, rec *store.OutcomeRec)
}

func (h lyingHandler) RunUnit(req protocol.UnitRequest) (store.OutcomeRec, error) {
	rec, err := h.honest.RunUnit(req)
	if err == nil {
		h.tamper(req, &rec)
	}
	return rec, err
}

func honestHandler(t testing.TB) *eval.UnitHandler {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	return eval.NewUnitHandler(c)
}

// runFleet sweeps jobs over a 2-worker fleet serving units through h and
// returns the coordinator and its outcomes.
func runFleet(t *testing.T, r *eval.Runner, jobs []eval.GridJob, h protocol.UnitHandler) (*Coordinator, [][]eval.Outcome, []*Worker) {
	t.Helper()
	fleet, err := spawnFleet(r.Corpus.Env, 2, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	workers := fleet.Workers(WorkerOptions{Policy: fastPolicy(), Slots: 2})
	t.Cleanup(func() { CloseWorkers(workers) }) //nolint:errcheck
	co := New(r, workers)
	return co, co.RunGrid(jobs), workers
}

func mismatchCount(workers []*Worker) int64 {
	var n int64
	for _, w := range workers {
		n += w.Backend.(*remote.Backend).Stats.Mismatches.Load()
	}
	return n
}

// A worker that answers Proved with a script the kernel rejects must fail
// the sweep loudly: kernel replay catches every such record, not just the
// sampled ones, and the coordinator's own recomputation keeps the tables
// right.
func TestLyingWorkerBrokenProofFailsReplay(t *testing.T) {
	base := newRunner(t)
	jobs := testJobs(base, 16)
	want := base.RunGrid(jobs)

	broken := 0
	for _, outs := range want {
		for _, o := range outs {
			if o.Status == core.Proved {
				broken++
			}
		}
	}
	if broken == 0 {
		t.Fatal("test grid proves nothing; the replay check would be vacuous")
	}
	h := lyingHandler{honest: honestHandler(t), tamper: func(_ protocol.UnitRequest, rec *store.OutcomeRec) {
		if core.Status(rec.Status) == core.Proved {
			rec.Proof = "intros. reflexivity."
		}
	}}
	co, got, workers := runFleet(t, newRunner(t), jobs, h)

	if err := co.Err(); !errors.Is(err, eval.ErrReplay) {
		t.Fatalf("sweep error = %v, want eval.ErrReplay\nstats: %s", err, co.Stats.Snapshot())
	}
	if co.Stats.ReplayFailures.Load() == 0 || mismatchCount(workers) == 0 {
		t.Fatalf("replay failure not counted: %s", co.Stats.Snapshot())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tables took a lying worker's word")
	}
}

// A worker that tampers with the query count of a unit in the mirror
// sample is caught by the sampled recompute and counted as a mismatch.
func TestLyingWorkerTamperedQueriesIsMismatch(t *testing.T) {
	base := newRunner(t)
	jobs := testJobs(base, 48)
	want := base.RunGrid(jobs)

	h := lyingHandler{honest: honestHandler(t), tamper: func(req protocol.UnitRequest, rec *store.OutcomeRec) {
		if !store.MirrorPick(req.Corpus, req.Key, eval.UnitMirrorDen) {
			return
		}
		if rec.Queries > 0 {
			rec.Queries--
		} else {
			rec.Queries++
		}
	}}
	co, got, workers := runFleet(t, newRunner(t), jobs, h)

	if err := co.Err(); !errors.Is(err, eval.ErrMismatch) {
		t.Fatalf("sweep error = %v, want eval.ErrMismatch\nstats: %s", err, co.Stats.Snapshot())
	}
	if co.Stats.Mismatches.Load() == 0 || mismatchCount(workers) == 0 {
		t.Fatalf("tampered sample not counted as a mismatch: %s", co.Stats.Snapshot())
	}
	if n := co.Stats.ReplayFailures.Load(); n != 0 {
		t.Fatalf("%d replay failures: a query-count lie must reach the sampled recompute", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tables took a lying worker's word")
	}
}

// A worker whose configuration differs from the coordinator's — here the
// hint split — refuses every unit; the coordinator reports that as a
// configuration error instead of merging a different table.
func TestConfigDriftIsRefused(t *testing.T) {
	base := newRunner(t)
	jobs := testJobs(base, 4)
	for name := range base.HintSet {
		delete(base.HintSet, name) // the coordinator's split drifts by one theorem
		break
	}
	want := base.RunGrid(jobs)

	r := newRunner(t)
	r.HintSet = base.HintSet
	co, got, _ := runFleet(t, r, jobs, honestHandler(t))
	err := co.Err()
	if !errors.Is(err, protocol.ErrRefused) || !strings.Contains(err.Error(), "hint split") {
		t.Fatalf("sweep error = %v, want a hint-split refusal", err)
	}
	if co.Stats.Remote.Load() != 0 {
		t.Fatalf("a drifted worker's units were accepted: %s", co.Stats.Snapshot())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("refused units were not recomputed by the coordinator")
	}
}

// Transport faults on unit traffic — dropped and torn requests, garbled
// answers, stalled reads — are retried, requeued, or re-dispatched, and
// never become verdicts: the tables stay identical to the single-process
// sweep.
func TestUnitTransportFaults(t *testing.T) {
	base := newRunner(t)
	jobs := testJobs(base, 48)
	want := base.RunGrid(jobs)

	r := newRunner(t)
	plan, err := faultpoint.ParsePlan(5, "drop-conn=0.06,partial-write=0.06,corrupt-answer=0.08,stall=0.08")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := SpawnFleet(r.Corpus.Env, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	workers := fleet.Workers(WorkerOptions{Policy: fastPolicy(), Plan: plan, Slots: 2, StallFor: 60 * time.Millisecond})
	defer CloseWorkers(workers) //nolint:errcheck
	for _, w := range workers {
		// Faults this dense would bench every worker early (the health
		// scorer's job); keep them serving so every site sees traffic.
		w.Scorer = &Scorer{QuarantineBelow: 1e-9}
	}
	co := New(r, workers)
	co.StragglerAfter = 40 * time.Millisecond
	got := co.RunGrid(jobs)

	if err := co.Err(); err != nil {
		t.Fatalf("transport faults became a verdict: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("faulted fleet outcomes differ from in-process\nstats: %s", co.Stats.Snapshot())
	}
	var hits []string
	for _, site := range []faultpoint.Site{faultpoint.DropConn, faultpoint.PartialWrite, faultpoint.CorruptAnswer, faultpoint.Stall} {
		if plan.Hits(site) == 0 {
			t.Errorf("%s never fired; the test would be vacuous for it", site)
		}
		hits = append(hits, fmt.Sprintf("%s=%d", site, plan.Hits(site)))
	}
	var retries int64
	for _, w := range workers {
		retries += w.Backend.(*remote.Backend).Stats.Retries.Load()
	}
	if retries == 0 {
		t.Fatalf("no unit was retried: %s", co.Stats.Snapshot())
	}
	if co.Stats.Remote.Load() == 0 {
		t.Fatalf("no unit served remotely: %s", co.Stats.Snapshot())
	}
	t.Logf("retries=%d, fault hits %v; %s", retries, hits, co.Stats.Snapshot())
}
