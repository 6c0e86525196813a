// Package sweep distributes an experiment grid across a fleet of checkerd
// workers: a coordinator shards the grid's (job, theorem) units over N
// workers with work-stealing, ships each unit whole to a worker (the
// protocol's RunUnit op), scores each worker's health from the
// robustness-ladder signals of its wire client, re-dispatches stragglers
// with first-result-wins dedup, and merges results in job order on the
// coordinator goroutine.
//
// The output is byte-identical to the single-process sweep under any
// schedule and any fleet chaos. The argument has three legs:
//
//  1. Unit purity. An Outcome is a pure function of (runner configuration,
//     unit): each search derives its RNG from a per-unit seed, and shared
//     caches only deduplicate identical computations. A worker runs the
//     unit with its own Runner over its own corpus, so before it runs
//     anything it recomputes the unit's persistent outcome key and refuses
//     the unit when its corpus, hint split, profile calibration, or search
//     configuration differs — a loud configuration error, never a quietly
//     different table.
//
//  2. Certificate replay plus sampled recompute. A worker's answer is
//     untrusted, like a record read back from the proof store, and is
//     checked the same way (eval.AcceptUnit). Every Proved script is
//     replayed through the kernel from the root in the theorem's restricted
//     environment — Coq's Qed discipline: a proof counts because the
//     kernel re-checks it, not because the prover says so. One unit in
//     eval.UnitMirrorDen, picked by key hash with the store's mirror rule,
//     is recomputed in process and compared field by field. A replay
//     failure or mismatch fails the run (Err) and the local recomputation
//     takes the unit's place. Transport faults never become verdicts: the
//     answer is checksummed, and a garbled, torn, dropped, or late answer
//     is retried and, when the worker's ladder is exhausted, requeued.
//
//  3. Fixed coordinates. Results land at out[job][theorem], never appended
//     in completion order, and only the coordinator goroutine writes the
//     result matrix; duplicate results (straggler re-dispatch races) are
//     dropped by a first-result-wins filter, and by legs 1 and 2 the
//     dropped duplicate equals the kept original anyway.
//
// Work routing — shards, steals, requeues, straggler duplicates, health
// quarantine, the in-process fallback — therefore only moves latency,
// never bytes.
package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llmfscq/internal/eval"
	"llmfscq/internal/faultpoint"
	"llmfscq/internal/protocol"
)

// DefaultStragglerAfter is how long a unit may stay in flight before an
// idle worker duplicates it. Sized well above a normal unit (tens of
// milliseconds at this corpus) so only genuine stragglers — a stalled or
// dying worker grinding through its retry ladder — are re-dispatched.
const DefaultStragglerAfter = 2 * time.Second

// Stats counts the coordinator's routing decisions for one sweep. Like the
// remote backend's Stats, these are observability only: no table depends
// on them.
type Stats struct {
	// Executions counts unit executions, including straggler duplicates.
	Executions atomic.Int64
	// Steals counts units taken from another worker's shard.
	Steals atomic.Int64
	// Redispatches counts straggler duplicates dispatched.
	Redispatches atomic.Int64
	// Duplicates counts results dropped by first-result-wins.
	Duplicates atomic.Int64
	// Quarantines counts workers benched by the health scorer.
	Quarantines atomic.Int64
	// Kills and Stalls count worker-kill / worker-stall fault firings.
	Kills  atomic.Int64
	Stalls atomic.Int64
	// Fallback counts units the coordinator ran inline after the whole
	// fleet became unavailable.
	Fallback atomic.Int64
	// Remote counts units a worker ran and the coordinator certified.
	Remote atomic.Int64
	// Requeues counts units put back in a queue after a transport failure.
	Requeues atomic.Int64
	// ReplayFailures and Mismatches count remote records that failed
	// certification (eval.ErrReplay, eval.ErrMismatch). Either fails the
	// run (see Err), as does a unit a worker refuses.
	ReplayFailures atomic.Int64
	Mismatches     atomic.Int64
}

// Snapshot renders the counters for logging.
func (s *Stats) Snapshot() string {
	return fmt.Sprintf("executions=%d remote=%d requeues=%d steals=%d redispatches=%d duplicates=%d quarantines=%d kills=%d stalls=%d fallback=%d replay-failures=%d mismatches=%d",
		s.Executions.Load(), s.Remote.Load(), s.Requeues.Load(), s.Steals.Load(),
		s.Redispatches.Load(), s.Duplicates.Load(), s.Quarantines.Load(), s.Kills.Load(), s.Stalls.Load(),
		s.Fallback.Load(), s.ReplayFailures.Load(), s.Mismatches.Load())
}

// flight is one dispatched-but-unmerged unit.
type flight struct {
	idx   int       // position in the unit list
	start time.Time // dispatch time
	owner int       // worker ID of the first dispatch
	dups  int       // straggler duplicates issued
}

// Coordinator fans one grid over a fleet of workers. Configure the
// exported fields before RunGrid; a Coordinator runs one grid at a time.
type Coordinator struct {
	// Runner owns the corpus, caches, and search hyperparameters. It keys
	// the units shipped to workers, certifies their answers, and runs the
	// units that stay in process (the mirror sample, store hits, and the
	// fallback).
	Runner *eval.Runner
	// Workers is the fleet (empty: RunGrid degenerates to the runner's own
	// single-process scheduler).
	Workers []*Worker
	// StragglerAfter is the re-dispatch age threshold (0: default;
	// negative: stragglers are never duplicated).
	StragglerAfter time.Duration
	// Plan supplies the worker-kill / worker-stall fault schedule; each
	// worker slot consumes its own deterministic injector. Connection-level
	// sites ride on the workers' backends, not here.
	Plan *faultpoint.Plan
	// StallFor is how long an injected worker stall freezes the slot
	// (0: 2×StragglerAfter, so a stall observably trips re-dispatch).
	StallFor time.Duration
	// Now and Sleep are the clock (nil: real time). Injected by the
	// fake-clock tests.
	Now   func() time.Time
	Sleep func(time.Duration)

	// Stats is live while the sweep runs.
	Stats Stats

	mu        sync.Mutex
	queues    [][]int       // per-worker shard deques of unit indices
	flights   []*flight     // in-flight units, unordered
	flightPos map[int]int   // unit index -> position in flights
	completed []bool        // merged units
	remaining int           // units not yet merged
	wake      chan struct{} // closed+replaced on every merge or requeue
	err       error         // first certification failure or refusal
}

// Err returns the sweep's first fatal error: a worker record that failed
// kernel replay or disagreed with its sampled recomputation, or a unit a
// worker refused for a configuration mismatch. The tables RunGrid returned
// are still right (the coordinator recomputed those units itself), but the
// fleet is broken or misconfigured and the run must fail.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail records a fatal error; the first one wins.
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

// New builds a coordinator over a runner and a fleet.
func New(r *eval.Runner, workers []*Worker) *Coordinator {
	return &Coordinator{Runner: r, Workers: workers}
}

func (c *Coordinator) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *Coordinator) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (c *Coordinator) stragglerAfter() time.Duration {
	if c.StragglerAfter == 0 {
		return DefaultStragglerAfter
	}
	return c.StragglerAfter
}

func (c *Coordinator) stallFor() time.Duration {
	if c.StallFor > 0 {
		return c.StallFor
	}
	if sa := c.stragglerAfter(); sa > 0 {
		return 2 * sa
	}
	return DefaultStragglerAfter
}

// unitResult carries one executed unit to the merge loop.
type unitResult struct {
	idx int
	out eval.Outcome
}

// RunGrid evaluates the grid across the fleet and returns the result
// matrix, byte-identical to Runner.RunGrid(jobs). The calling goroutine is
// the coordinator: it merges every result in fixed (job, theorem)
// coordinates and is the only writer of the returned matrix.
func (c *Coordinator) RunGrid(jobs []eval.GridJob) [][]eval.Outcome {
	units := eval.Units(jobs)
	if len(c.Workers) == 0 || len(units) == 0 {
		return c.Runner.RunGrid(jobs)
	}
	out := eval.GridShape(jobs)

	shards := eval.Partition(units, len(c.Workers))
	c.mu.Lock()
	c.queues = make([][]int, len(c.Workers))
	pos := 0
	for i, shard := range shards {
		q := make([]int, len(shard))
		for j := range shard {
			q[j] = pos
			pos++
		}
		c.queues[i] = q
	}
	c.flights = nil
	c.err = nil
	c.flightPos = make(map[int]int)
	c.completed = make([]bool, len(units))
	c.remaining = len(units)
	c.wake = make(chan struct{})
	c.mu.Unlock()

	// Buffered for the worst case — every unit merged once plus one
	// straggler duplicate — so a worker finishing after the merge loop has
	// exited never blocks on send.
	results := make(chan unitResult, 2*len(units))
	stranded := make(chan struct{})
	var slotCount atomic.Int64
	var wg sync.WaitGroup
	for _, w := range c.Workers {
		w.scorer() // materialize before the slots race to lazy-init it
		for s := 0; s < w.slots(); s++ {
			slotCount.Add(1)
			wg.Add(1)
			go func(w *Worker, slot int) {
				defer wg.Done()
				defer func() {
					if slotCount.Add(-1) == 0 {
						close(stranded)
					}
				}()
				c.workerLoop(w, slot, jobs, units, results)
			}(w, s)
		}
	}

	c.merge(jobs, units, out, results, stranded)
	wg.Wait()
	return out
}

// merge is the coordinator goroutine's single-writer result loop:
// first-result-wins per unit, fixed coordinates, job order by construction
// of the matrix. If the whole fleet quarantines itself away, the loop runs
// the leftovers inline — outcomes are worker-independent, so even total
// fleet loss cannot change a byte.
func (c *Coordinator) merge(jobs []eval.GridJob, units []eval.GridUnit, out [][]eval.Outcome, results <-chan unitResult, stranded <-chan struct{}) {
	merged := make([]bool, len(units))
	remaining := len(units)
	accept := func(res unitResult) {
		if merged[res.idx] {
			c.Stats.Duplicates.Add(1)
			return
		}
		merged[res.idx] = true
		u := units[res.idx]
		out[u.Job][u.Th] = res.out
		remaining--
		c.completeUnit(res.idx)
	}
	isStranded := false
	for remaining > 0 {
		if isStranded {
			// No worker slots are left. Everything already executed is
			// buffered in results; drain it, then claim never-dispatched
			// units and run them inline.
			select {
			case res := <-results:
				accept(res)
				continue
			default:
			}
			idx, ok := c.claimUndispatched()
			if !ok {
				// Remaining units were dispatched before the fleet died,
				// so their results are (or are about to be) buffered.
				accept(<-results)
				continue
			}
			o := c.Runner.RunUnit(jobs, units[idx])
			c.Stats.Fallback.Add(1)
			c.Stats.Executions.Add(1)
			accept(unitResult{idx: idx, out: o})
			continue
		}
		select {
		case res := <-results:
			accept(res)
		case <-stranded:
			isStranded = true
		}
	}
}

// completeUnit retires a merged unit from the routing state and wakes every
// waiting worker.
func (c *Coordinator) completeUnit(idx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completed[idx] = true
	c.remaining--
	c.removeFlightLocked(idx)
	close(c.wake)
	c.wake = make(chan struct{})
}

// removeFlightLocked drops the unit's flight entry by swap-remove, if any.
func (c *Coordinator) removeFlightLocked(idx int) {
	p, ok := c.flightPos[idx]
	if !ok {
		return
	}
	last := len(c.flights) - 1
	c.flights[p] = c.flights[last]
	c.flightPos[c.flights[p].idx] = p
	c.flights = c.flights[:last]
	delete(c.flightPos, idx)
}

// claimUndispatched pops any queued unit for the stranded fallback,
// claiming it so repeated calls make progress.
func (c *Coordinator) claimUndispatched() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.queues {
		for len(q) > 0 {
			idx := q[0]
			q = q[1:]
			c.queues[i] = q
			if !c.completed[idx] {
				return idx, true
			}
		}
	}
	return 0, false
}

// workerLoop pulls units for one worker slot until the sweep is merged or
// the worker is quarantined. Each slot consumes its own deterministic fault
// injector, so a chaos schedule replays exactly.
func (c *Coordinator) workerLoop(w *Worker, slot int, jobs []eval.GridJob, units []eval.GridUnit, results chan<- unitResult) {
	// Worker-scope injector ids live in the negative range so they can
	// never collide with the positive connection ids the backends use on a
	// shared plan.
	inj := c.Plan.Injector(-1 - int64(w.ID)*64 - int64(slot))
	for {
		idx, ok := c.next(w)
		if !ok {
			return
		}
		if inj.Fire(faultpoint.WorkerKill) {
			c.killWorker(w)
		}
		if inj.Fire(faultpoint.WorkerStall) {
			c.Stats.Stalls.Add(1)
			c.sleep(c.stallFor())
		}
		before := w.health()
		o, err := c.execute(w, jobs, units[idx])
		w.scorer().Observe(w.health().Sub(before))
		if err != nil {
			c.requeue(w, idx)
		} else {
			w.units.Add(1)
			c.Stats.Executions.Add(1)
			results <- unitResult{idx: idx, out: o}
		}
		if w.scorer().Quarantined() {
			// Benched: stop pulling units. The shard this worker leaves
			// behind is stolen by healthy workers (or, in the limit, run by
			// the coordinator's fallback); quarantine only reroutes work.
			if w.quarCounted.CompareAndSwap(false, true) {
				c.Stats.Quarantines.Add(1)
			}
			return
		}
	}
}

// execute runs one unit for a worker slot. The unit is shipped whole to
// the worker and its answer certified (eval.AcceptUnit); units that cannot
// be named on the wire or that the proof store already answers run in
// process, as does everything after a fatal error (the run is failing
// anyway, and the coordinator's own results are the trusted ones). A
// non-nil error is a transport failure: the caller requeues the unit.
func (c *Coordinator) execute(w *Worker, jobs []eval.GridJob, u eval.GridUnit) (eval.Outcome, error) {
	req, ok := c.Runner.UnitRequest(jobs, u)
	if !ok || w.unit == nil || c.Err() != nil {
		return c.Runner.RunUnit(jobs, u), nil
	}
	rec, err := w.unit.RunUnit(req)
	if errors.Is(err, protocol.ErrRefused) {
		c.fail(fmt.Errorf("sweep: worker %d (%s) refused a unit — coordinator and worker disagree about the configuration: %w", w.ID, w.Name, err))
		return c.Runner.RunUnit(jobs, u), nil
	}
	if err != nil {
		return eval.Outcome{}, err
	}
	o, err := c.Runner.AcceptUnit(jobs, u, req, rec)
	if err != nil {
		if errors.Is(err, eval.ErrMismatch) {
			c.Stats.Mismatches.Add(1)
		} else {
			c.Stats.ReplayFailures.Add(1)
		}
		// Either way the worker's answer disagreed with the kernel: count
		// it where wire/mirror disagreements are counted too.
		w.unit.Stats.Mismatches.Add(1)
		c.fail(fmt.Errorf("sweep: worker %d (%s): %w", w.ID, w.Name, err))
		return o, nil
	}
	c.Stats.Remote.Add(1)
	w.remote.Add(1)
	return o, nil
}

// requeue puts a unit whose execution failed in transport back at the back
// of the worker's shard — where stealers take from first — and wakes every
// waiting slot. If the whole fleet quarantines itself away, the stranded
// fallback claims it from there.
func (c *Coordinator) requeue(w *Worker, idx int) {
	c.Stats.Requeues.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.completed[idx] {
		return // a straggler duplicate already delivered it
	}
	c.removeFlightLocked(idx)
	c.queues[w.ID] = append(c.queues[w.ID], idx)
	close(c.wake)
	c.wake = make(chan struct{})
}

// killWorker fires the worker's kill hook at most once.
func (c *Coordinator) killWorker(w *Worker) {
	if w.Kill == nil || !w.killed.CompareAndSwap(false, true) {
		return
	}
	w.Kill()
	c.Stats.Kills.Add(1)
}

// next returns the next unit index for a worker slot: own shard front,
// then a steal from the longest other shard's back, then a straggler
// duplicate, and otherwise blocks until a merge or an aging straggler
// changes the picture. ok=false means the sweep is fully merged (or this
// worker was quarantined by another slot).
func (c *Coordinator) next(w *Worker) (int, bool) {
	c.mu.Lock()
	for {
		if c.remaining <= 0 || w.scorer().Quarantined() {
			c.mu.Unlock()
			return 0, false
		}
		c.dropCompletedLocked()
		// 1. Own shard, front: preserves the locality of the initial
		// partition while the fleet is balanced.
		if q := c.queues[w.ID]; len(q) > 0 {
			idx := q[0]
			c.queues[w.ID] = q[1:]
			c.dispatchLocked(idx, w.ID)
			c.mu.Unlock()
			return idx, true
		}
		// 2. Steal from the longest shard, back: classic work-stealing;
		// taking from the back keeps the victim's locality intact (and
		// picks up requeued units first).
		victim, best := -1, 0
		for i, q := range c.queues {
			if len(q) > best {
				victim, best = i, len(q)
			}
		}
		if victim >= 0 {
			q := c.queues[victim]
			idx := q[len(q)-1]
			c.queues[victim] = q[:len(q)-1]
			c.Stats.Steals.Add(1)
			w.steals.Add(1)
			c.dispatchLocked(idx, w.ID)
			c.mu.Unlock()
			return idx, true
		}
		// 3. Straggler duplicate: the fleet is idle but units are stuck in
		// flight somewhere slow; run the oldest one here too and let
		// first-result-wins settle it.
		now := c.now()
		if fl := pickStraggler(c.flights, now, c.stragglerAfter(), w.ID); fl != nil {
			fl.dups++
			c.Stats.Redispatches.Add(1)
			w.redispatches.Add(1)
			idx := fl.idx
			c.mu.Unlock()
			return idx, true
		}
		// 4. Wait for a merge to free the queues, or for a flight to age
		// past the straggler threshold.
		wait := stragglerWait(c.flights, now, c.stragglerAfter(), w.ID)
		wake := c.wake
		c.mu.Unlock()
		if wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-wake:
				timer.Stop()
			case <-timer.C:
			}
		} else {
			<-wake
		}
		c.mu.Lock()
	}
}

// dropCompletedLocked trims merged units off both ends of every shard. A
// requeued unit can be merged through a straggler duplicate while it sits
// in a queue; it must not run again.
func (c *Coordinator) dropCompletedLocked() {
	for i, q := range c.queues {
		for len(q) > 0 && c.completed[q[0]] {
			q = q[1:]
		}
		for len(q) > 0 && c.completed[q[len(q)-1]] {
			q = q[:len(q)-1]
		}
		c.queues[i] = q
	}
}

// dispatchLocked records a first dispatch in the flight table.
func (c *Coordinator) dispatchLocked(idx, owner int) {
	fl := &flight{idx: idx, start: c.now(), owner: owner}
	c.flightPos[idx] = len(c.flights)
	c.flights = append(c.flights, fl)
}

// pickStraggler returns the flight an idle worker should duplicate: the
// longest-in-flight entry at least threshold old, not yet duplicated, and
// not owned by the asking worker (duplicating your own stuck unit buys
// nothing — the slot executing it is this worker's sibling). Ties on age
// break toward the lowest unit index, so the choice is independent of the
// flight table's internal order. A negative threshold disables
// re-dispatch. Pure: the fake-clock property tests drive it directly.
func pickStraggler(flights []*flight, now time.Time, threshold time.Duration, self int) *flight {
	if threshold < 0 {
		return nil
	}
	var pick *flight
	for _, fl := range flights {
		if fl.dups > 0 || fl.owner == self || now.Sub(fl.start) < threshold {
			continue
		}
		if pick == nil || fl.start.Before(pick.start) || (fl.start.Equal(pick.start) && fl.idx < pick.idx) {
			pick = fl
		}
	}
	return pick
}

// stragglerWait returns how long an idle worker should wait before some
// flight becomes straggler-eligible for it (0: none ever will — only
// merges can produce new work, so wait on those alone). Pure, like
// pickStraggler.
func stragglerWait(flights []*flight, now time.Time, threshold time.Duration, self int) time.Duration {
	if threshold < 0 {
		return 0
	}
	var wait time.Duration
	found := false
	for _, fl := range flights {
		if fl.dups > 0 || fl.owner == self {
			continue
		}
		d := threshold - now.Sub(fl.start)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		if !found || d < wait {
			wait, found = d, true
		}
	}
	return wait
}

// WorkerReport renders one line per worker for end-of-sweep logging.
func (c *Coordinator) WorkerReport() string {
	var b strings.Builder
	for _, w := range c.Workers {
		status := "healthy"
		switch {
		case w.Killed() && w.scorer().Quarantined():
			status = "killed+quarantined"
		case w.Killed():
			status = "killed"
		case w.scorer().Quarantined():
			status = "quarantined"
		}
		fmt.Fprintf(&b, "worker %d (%s): units=%d remote=%d steals=%d redispatches=%d score=%.2f %s\n",
			w.ID, w.Name, w.Units(), w.Remote(), w.Steals(), w.Redispatches(), w.scorer().Score(), status)
	}
	return b.String()
}
