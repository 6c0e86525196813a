package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/remote"
	"llmfscq/internal/store"
	"llmfscq/internal/sweep"
	"llmfscq/internal/tactic"
)

// replay is one traced, in-process run of a workload: it calls the layers'
// public functions in the order cmd/experiments does and renders the same
// stdout, with every unit on the driver's own pool of runtime.NumCPU()
// goroutines (the program's default parallelism).
type replay struct {
	cfg  config
	tr   *tracer
	pool int

	c  *corpus.Corpus
	r  *eval.Runner
	pc *store.Cache

	units []unit // every unit run, for the replay check and the prompt pass

	// Fleet only.
	co      *sweep.Coordinator
	workers []*workerBackend

	corpusLoadS, storeOpenS, storeFlushS float64
	storeStats                           store.CacheStats
}

// unit is one call of RunTheorem, RunReduced or RunWholeProof and its
// outcome.
type unit struct {
	kind    unitKind
	prof    model.Profile
	setting prompt.Setting
	th      *corpus.Theorem
	out     eval.Outcome
}

type unitKind int

const (
	theoremUnit unitKind = iota
	reducedUnit
	wholeUnit
)

// algorithm is a search function with the name that keys its outcomes in
// the proof store; the traced wrapper must keep the name so store keys are
// the ones the program uses.
type algorithm struct {
	name string
	fn   func(core.Config) core.Result
}

var bestFirst = algorithm{"best-first", core.BestFirst}

// run replays the workload and returns its rendered stdout.
func (rp *replay) run(seed int64, storeDir string) (string, error) {
	var err error
	rp.corpusLoadS = rp.tr.timed("corpus.load", func() { rp.c, err = corpus.Default() })
	if err != nil {
		return "", fmt.Errorf("loading corpus: %w", err)
	}
	rp.tr.timed("eval.new_runner", func() { rp.r = eval.NewRunner(rp.c, seed) })
	r := rp.r
	if rp.cfg.fuel != 0 {
		r.QueryLimit = rp.cfg.fuel
	}
	r.Parallelism = rp.pool
	r.Search, r.SearchName = rp.tr.search(bestFirst.fn, nil), bestFirst.name
	if rp.cfg.store != noStore {
		rp.storeOpenS = rp.tr.timed("store.open", func() { err = rp.openStore(storeDir) })
		if err != nil {
			return "", fmt.Errorf("proof-cache: %w", err)
		}
	}

	var b strings.Builder
	test := r.TestSet()
	fmt.Fprintf(&b, "corpus: %d theorems, %d in hint set, %d evaluated\n\n",
		len(rp.c.Theorems), len(rp.c.Theorems)-len(test), len(test))
	var jobs []eval.GridJob
	for _, prof := range model.Paper() {
		if rp.cfg.model != "" && !strings.Contains(prof.Name, rp.cfg.model) {
			continue
		}
		for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
			jobs = append(jobs, eval.GridJob{Profile: prof, Setting: setting, Theorems: test})
		}
	}
	outs, err := rp.grid(jobs)
	if err != nil {
		return "", err
	}
	sw := eval.NewSweep()
	for i, o := range outs {
		sw.Add(jobs[i].Profile.Name, jobs[i].Setting.String(), o)
		for t := range o {
			rp.units = append(rp.units, unit{theoremUnit, jobs[i].Profile, jobs[i].Setting, jobs[i].Theorems[t], o[t]})
		}
	}
	b.WriteString(sw.Figure1a() + "\n")
	if rp.cfg.all {
		for _, s := range []string{sw.Figure1b(), sw.Table1("GPT-4o"), sw.Table2(), sw.Figure2(rp.c, 3),
			rp.probe(sw), rp.wholeProof(sw), rp.ablations()} {
			b.WriteString(s + "\n")
		}
	}
	if rp.pc != nil {
		rp.storeFlushS = rp.tr.timed("store.flush", func() {
			r.FlushProofStore()
			rp.storeStats = rp.pc.Stats()
			err = rp.pc.Close()
		})
		if err != nil {
			return "", fmt.Errorf("proof-cache: %w", err)
		}
		if n := r.ProofStoreMismatches(); n > 0 {
			return "", fmt.Errorf("proof-cache: %d mirror mismatches", n)
		}
	}
	return b.String(), nil
}

func (rp *replay) openStore(dir string) error {
	files, err := corpus.Sources()
	if err != nil {
		return err
	}
	rp.pc, err = store.OpenCache(store.CacheConfig{
		Dir:        dir,
		CorpusHash: corpus.Hash(files),
		MirrorDen:  16, // the program's -proof-cache-mirror default
	})
	rp.r.ProofStore = rp.pc
	return err
}

// grid runs the (model, setting) × theorem grid: on the driver's pool, or
// for a fleet workload through the sweep coordinator with each worker's
// backend wrapped.
func (rp *replay) grid(jobs []eval.GridJob) ([][]eval.Outcome, error) {
	if rp.cfg.workers == 0 {
		out := eval.GridShape(jobs)
		units := eval.Units(jobs)
		rp.onPool(rp.r, bestFirst, len(units), func(rr *eval.Runner, i int) {
			u := units[i]
			j := jobs[u.Job]
			out[u.Job][u.Th] = rr.RunTheorem(j.Profile, j.Setting, j.Theorems[u.Th])
		})
		return out, nil
	}

	var fleet *sweep.Fleet
	var err error
	rp.tr.timed("sweep.spawn", func() { fleet, err = sweep.SpawnFleet(rp.c.Env, rp.cfg.workers) })
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	// The program's defaults: 5 s wire timeout, batched wire, fault seed 1,
	// and the run's parallelism split across the fleet.
	pol := remote.DefaultPolicy()
	pol.RequestTimeout = 5 * time.Second
	slots := rp.pool / rp.cfg.workers
	if slots < 1 {
		slots = 1
	}
	ws := fleet.Workers(sweep.WorkerOptions{Policy: pol, Seed: 1, StallFor: 2 * pol.RequestTimeout, Batch: true, Slots: slots})
	for _, w := range ws {
		wb := &workerBackend{inner: w.Backend}
		rp.workers = append(rp.workers, wb)
		w.Backend = wb
	}
	rp.co = sweep.New(rp.r, ws)
	var out [][]eval.Outcome
	rp.tr.timed("sweep.grid", func() { out = rp.co.RunGrid(jobs) })
	if err := sweep.CloseWorkers(ws); err != nil {
		return nil, fmt.Errorf("closing workers: %w", err)
	}
	var mismatches int64
	for _, wb := range rp.workers {
		if rb, ok := wb.inner.(*remote.Backend); ok {
			mismatches += rb.Stats.Mismatches.Load()
		}
	}
	if mismatches > 0 {
		return nil, fmt.Errorf("distributed: %d semantic wire/mirror mismatches", mismatches)
	}
	return out, nil
}

// onPool runs n units on rp.pool goroutines. Each goroutine evaluates
// through its own copy of base whose Search is traced under the unit the
// goroutine is running, so each search span has its unit as parent.
func (rp *replay) onPool(base *eval.Runner, alg algorithm, n int, run func(rr *eval.Runner, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < rp.pool; g++ {
		sl := &slot{}
		rr := *base
		rr.Search, rr.SearchName = rp.tr.search(alg.fn, sl), alg.name
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sl.cur = rp.tr.begin("eval.unit", nil)
				run(&rr, i)
				rp.tr.end(sl.cur, nil)
				sl.cur = nil
			}
		}()
	}
	wg.Wait()
}

// probe reproduces the §4.3 reduced-context probe of cmd/experiments.
func (rp *replay) probe(sw *eval.Sweep) string {
	var b strings.Builder
	b.WriteString("§4.3 probe: failed short theorems, full vs reduced context (GPT-4o, hints)\n\n")
	outs := sw.ByModel["GPT-4o"]["hint"]
	if len(outs) == 0 {
		return b.String() + "(GPT-4o hint sweep not run)\n"
	}
	var names []string
	var ths []*corpus.Theorem
	for _, o := range outs {
		if o.Status == core.Proved || o.HumanTokens >= 16 {
			continue
		}
		if th, ok := rp.c.TheoremNamed(o.Theorem); ok {
			names = append(names, o.Theorem)
			ths = append(ths, th)
		}
	}
	red := make([]eval.Outcome, len(ths))
	rp.onPool(rp.r, bestFirst, len(ths), func(rr *eval.Runner, i int) {
		red[i] = rr.RunReduced(model.GPT4o, prompt.Hint, ths[i])
	})
	recovered := 0
	for i, o := range red {
		rp.units = append(rp.units, unit{reducedUnit, model.GPT4o, prompt.Hint, ths[i], o})
		mark := "still fails"
		if o.Status == core.Proved {
			recovered++
			mark = "PROVED with reduced context"
		}
		fmt.Fprintf(&b, "  %-28s %s\n", names[i], mark)
	}
	if len(ths) == 0 {
		b.WriteString("  (no failed theorems under 16 tokens)\n")
	} else {
		fmt.Fprintf(&b, "\nreduced context recovered %d/%d failed short theorems\n", recovered, len(ths))
	}
	return b.String()
}

// wholeProof reproduces the §4.3 whole-proof comparison of cmd/experiments.
func (rp *replay) wholeProof(sw *eval.Sweep) string {
	var b strings.Builder
	b.WriteString("§4.3 whole-proof generation vs best-first (GPT-4o, hints)\n\n")
	ths := rp.r.TestSet()
	outs := make([]eval.Outcome, len(ths))
	rp.onPool(rp.r, bestFirst, len(ths), func(rr *eval.Runner, i int) {
		outs[i] = rr.RunWholeProof(model.GPT4o, prompt.Hint, ths[i], 8)
	})
	proved := 0
	for i, o := range outs {
		rp.units = append(rp.units, unit{wholeUnit, model.GPT4o, prompt.Hint, ths[i], o})
		if o.Status == core.Proved {
			proved++
		}
	}
	bfProved := 0
	for _, o := range sw.ByModel["GPT-4o"]["hint"] {
		if o.Status == core.Proved {
			bfProved++
		}
	}
	fmt.Fprintf(&b, "  whole-proof (8 samples each): %d/%d proved (%.1f%%)\n",
		proved, len(ths), 100*float64(proved)/float64(len(ths)))
	if n := len(sw.ByModel["GPT-4o"]["hint"]); n > 0 {
		fmt.Fprintf(&b, "  best-first  (width 8, fuel 128): %d/%d proved (%.1f%%)\n",
			bfProved, n, 100*float64(bfProved)/float64(n))
	}
	return b.String()
}

// ablations reproduces the search ablations of cmd/experiments.
func (rp *replay) ablations() string {
	var b strings.Builder
	b.WriteString("Ablations (GPT-4o, hints)\n\n")
	ths := rp.r.TestSet()
	run := func(width, fuel int, alg algorithm) (float64, float64) {
		rr := *rp.r
		rr.Width = width
		rr.QueryLimit = fuel
		outs := make([]eval.Outcome, len(ths))
		rp.onPool(&rr, alg, len(ths), func(wr *eval.Runner, i int) {
			outs[i] = wr.RunTheorem(model.GPT4o, prompt.Hint, ths[i])
		})
		p, q := 0, 0
		for i, o := range outs {
			rp.units = append(rp.units, unit{theoremUnit, model.GPT4o, prompt.Hint, ths[i], o})
			if o.Status == core.Proved {
				p++
				q += o.Queries
			}
		}
		avgQ := 0.0
		if p > 0 {
			avgQ = float64(q) / float64(p)
		}
		return 100 * float64(p) / float64(len(outs)), avgQ
	}
	b.WriteString("width sweep (fuel=128, best-first):\n")
	for _, w := range []int{1, 2, 4, 8, 16} {
		cov, q := run(w, 128, bestFirst)
		fmt.Fprintf(&b, "  width %2d: coverage %5.1f%%, avg queries per proof %.1f\n", w, cov, q)
	}
	b.WriteString("query-limit sweep (width=8, best-first):\n")
	for _, f := range []int{32, 64, 128, 256} {
		cov, q := run(8, f, bestFirst)
		fmt.Fprintf(&b, "  fuel %3d: coverage %5.1f%%, avg queries per proof %.1f\n", f, cov, q)
	}
	b.WriteString("algorithm (width=8, fuel=128):\n")
	for _, alg := range []struct {
		label string
		alg   algorithm
	}{{"best-first", bestFirst}, {"linear (Rango-style)", algorithm{"linear", core.Linear}}, {"greedy", algorithm{"greedy", core.Greedy}}} {
		cov, q := run(8, 128, alg.alg)
		fmt.Fprintf(&b, "  %-22s coverage %5.1f%%, avg queries per proof %.1f\n", alg.label, cov, q)
	}
	return b.String()
}

// replayFailures re-checks every proved outcome with the kernel
// (tactic.CheckProof in the theorem's restricted environment) and counts
// the proofs it rejects.
func (rp *replay) replayFailures() int {
	var fails atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < rp.pool; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(rp.units) {
					return
				}
				u := rp.units[i]
				if u.out.Status != core.Proved {
					continue
				}
				if err := tactic.CheckProof(rp.r.RestrictEnv(u.th), u.th.Stmt, u.out.Proof); err != nil {
					fails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(fails.Load())
}

// promptPass times the prompt layer on its own: the runner builds prompts
// inside RunTheorem, out of the tracer's reach, so the pass builds the
// replay's prompts again, one per unit, with a fresh item cache, on one
// goroutine.
func (rp *replay) promptPass() (calls int, seconds float64) {
	start := time.Now()
	cache := prompt.NewCache(rp.c, rp.r.HintSet)
	for _, u := range rp.units {
		b := prompt.Builder{Corpus: rp.c, Setting: u.setting, HintSet: rp.r.HintSet, Window: u.prof.ContextWindow, Cache: cache}
		if u.kind == reducedUnit {
			b.ReducedContext(u.th)
		} else {
			b.Build(u.th)
		}
	}
	return len(rp.units), time.Since(start).Seconds()
}

// runtimeSample reads the runtime counters the gc.* and heap.* metrics are
// deltas of.
type runtimeSample struct {
	gcCycles, gcCPU, allocBytes, allocs float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// layerMetrics derives every per-layer metric from the spans and the
// layers' own counters.
func (rp *replay) layerMetrics(before, after runtimeSample, wall float64) map[string]float64 {
	m := map[string]float64{}
	sec := func(ns int64) float64 { return time.Duration(ns).Seconds() }
	var searchNs, searchSelf, unitNs, unitSelf, remoteTry int64
	var s span
	rp.tr.mu.Lock()
	for _, sp := range rp.tr.spans {
		switch sp.Name {
		case "core.search":
			m["core.searches"]++
			searchNs += sp.dur()
			searchSelf += sp.dur() - sp.Child
			s.ProposeCalls += sp.ProposeCalls
			s.ProposeNs += sp.ProposeNs
			s.Candidates += sp.Candidates
			s.TryCalls += sp.TryCalls
			s.TryNs += sp.TryNs
			s.Applied += sp.Applied
			s.Rejected += sp.Rejected
			s.Timeout += sp.Timeout
			s.Expanded += sp.Expanded
			s.InvalidDuplicate += sp.InvalidDuplicate
			if sp.Remote {
				remoteTry += sp.TryNs
			}
		case "eval.unit":
			unitNs += sp.dur()
			unitSelf += sp.dur() - sp.Child
		}
	}
	rp.tr.mu.Unlock()

	m["corpus.load_s"] = rp.corpusLoadS
	m["model.propose_calls"] = float64(s.ProposeCalls)
	m["model.propose_s"] = sec(s.ProposeNs)
	m["model.candidates"] = float64(s.Candidates)
	m["checker.try_calls"] = float64(s.TryCalls)
	m["checker.try_s"] = sec(s.TryNs)
	m["checker.applied"] = float64(s.Applied)
	m["checker.rejected"] = float64(s.Rejected)
	m["checker.timeout"] = float64(s.Timeout)
	m["checker.applied_frac"] = frac(s.Applied, s.TryCalls)
	m["core.search_s"] = sec(searchNs)
	m["core.self_s"] = sec(searchSelf)
	m["core.expanded"] = float64(s.Expanded)
	m["core.invalid_duplicate"] = float64(s.InvalidDuplicate)
	hits, misses, _, _ := rp.r.TryCacheStats()
	m["core.trycache_hits"] = float64(hits)
	m["core.trycache_misses"] = float64(misses)
	m["core.trycache_hit_frac"] = frac(hits, hits+misses)
	m["eval.unit_s"] = sec(unitNs)
	m["eval.unit_self_s"] = sec(unitSelf)

	st := rp.storeStats
	m["store.open_s"] = rp.storeOpenS
	m["store.flush_s"] = rp.storeFlushS
	m["store.disk_bytes"] = float64(st.Store.DiskBytes)
	m["store.outcome_hits"] = float64(st.OutcomeHits)
	m["store.outcome_misses"] = float64(st.OutcomeMisses)
	m["store.outcome_hit_frac"] = frac(st.OutcomeHits, st.OutcomeHits+st.OutcomeMisses)
	m["store.mirror_checks"] = float64(st.MirrorChecks)
	m["store.appends"] = float64(st.Store.Appends)
	m["store.try_warmed"] = float64(st.TryWarmed)

	var wire, retries int64
	var busy []float64
	for _, wb := range rp.workers {
		if rb, ok := wb.inner.(*remote.Backend); ok {
			wire += rb.Stats.WireChecks.Load()
			retries += rb.Stats.Retries.Load()
		}
		busy = append(busy, sec(wb.busy.Load()))
	}
	m["remote.wire_checks"] = float64(wire)
	m["remote.retries"] = float64(retries)
	m["remote.try_s"] = sec(remoteTry)
	m["sweep.units"], m["sweep.steals"], m["sweep.duplicates"] = 0, 0, 0
	if rp.co != nil {
		m["sweep.units"] = float64(rp.co.Stats.Executions.Load())
		m["sweep.steals"] = float64(rp.co.Stats.Steals.Load())
		m["sweep.duplicates"] = float64(rp.co.Stats.Duplicates.Load())
	}
	m["sweep.worker_busy_s"], m["sweep.imbalance"] = 0, 0
	if len(busy) > 0 {
		total, most := 0.0, 0.0
		for _, x := range busy {
			total += x
			if x > most {
				most = x
			}
		}
		m["sweep.worker_busy_s"] = total
		if total > 0 {
			m["sweep.imbalance"] = most / (total / float64(len(busy)))
		}
	}

	ih, im := kernel.InternStats()
	m["kernel.intern_hit_frac"] = frac(int64(ih), int64(ih+im))
	m["gc.cycles"] = after.gcCycles - before.gcCycles
	m["gc.cpu_s"] = after.gcCPU - before.gcCPU
	m["heap.alloc_bytes"] = after.allocBytes - before.allocBytes
	m["heap.allocs"] = after.allocs - before.allocs
	m["trace.wall_s"] = wall
	return m
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// traceWorkload runs the traced replay and returns its per-layer metrics
// (all but trace.overhead_s and the replay/prompt passes, which the caller
// adds), its stdout, and the tracer. trace.wall_s leaves out stolen time,
// as wall_s does.
func traceWorkload(cfg config, seed int64, storeDir string) (*replay, string, map[string]float64, error) {
	rp := &replay{cfg: cfg, tr: newTracer(), pool: runtime.NumCPU()}
	runtime.GC()
	before := readRuntime()
	steal0 := stealTicks()
	start := time.Now()
	out, err := rp.run(seed, storeDir)
	wall := child{wall: time.Since(start), stolen: time.Duration(stealTicks()-steal0) * time.Second / clockTicks}.elapsed().Seconds()
	after := readRuntime()
	if err != nil {
		return nil, "", nil, err
	}
	return rp, out, rp.layerMetrics(before, after, wall), nil
}
