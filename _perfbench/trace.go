package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"llmfscq/internal/checker"
	"llmfscq/internal/core"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/tactic"
)

// span is one timed call into a layer. Leaf calls (model proposals, tactic
// executions) are too many to keep one by one, so each search span carries
// their totals instead; a span's self time is its duration minus Child.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Child  int64  `json:"child_ns,omitempty"` // time covered by child spans and leaf calls

	// Totals of the leaf calls under a core.search span, and its result.
	ProposeNs        int64 `json:"propose_ns,omitempty"`
	ProposeCalls     int64 `json:"propose_calls,omitempty"`
	Candidates       int64 `json:"candidates,omitempty"`
	TryNs            int64 `json:"try_ns,omitempty"`
	TryCalls         int64 `json:"try_calls,omitempty"`
	Applied          int64 `json:"applied,omitempty"`
	Rejected         int64 `json:"rejected,omitempty"`
	Timeout          int64 `json:"timeout,omitempty"`
	Expanded         int64 `json:"expanded,omitempty"`
	InvalidDuplicate int64 `json:"invalid_duplicate,omitempty"`
	// Remote marks a search whose tactics ran on a fleet worker's backend.
	Remote bool `json:"remote,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (nil: a root span).
func (t *tracer) begin(name string, parent *span) *span {
	s := &span{ID: t.nextID.Add(1), Name: name, Start: t.now()}
	if parent != nil {
		s.Parent = parent.ID
	}
	return s
}

// end closes s, charges its duration to parent, and keeps it.
func (t *tracer) end(s *span, parent *span) {
	s.End = t.now()
	if parent != nil {
		atomic.AddInt64(&parent.Child, s.dur())
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a root span and returns its duration in seconds.
func (t *tracer) timed(name string, f func()) float64 {
	s := t.begin(name, nil)
	f()
	t.end(s, nil)
	return time.Duration(s.dur()).Seconds()
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// slot is one goroutine of the driver's unit pool. Its Runner copy's
// Search closure reads cur, so a search span knows the unit that caused it;
// both run on the slot's goroutine.
type slot struct {
	cur *span
}

// search wraps a search algorithm so each call records a core.search span
// with the time spent in Config.Propose and in the backend's documents.
// sl is nil for searches whose unit the driver does not run itself (the
// fleet coordinator's).
func (t *tracer) search(fn func(core.Config) core.Result, sl *slot) func(core.Config) core.Result {
	return func(cfg core.Config) core.Result {
		var parent *span
		if sl != nil {
			parent = sl.cur
		}
		s := t.begin("core.search", parent)
		acc := &searchAcc{}
		be := cfg.Backend
		if be == nil {
			be = checker.InProcess{}
		}
		wb, remote := be.(*workerBackend)
		cfg.Backend = tracedBackend{inner: be, acc: acc}
		propose := cfg.Propose
		cfg.Propose = func(st *tactic.State, path []string) []model.Candidate {
			start := time.Now()
			c := propose(st, path)
			acc.proposeNs.Add(int64(time.Since(start)))
			acc.proposeCalls.Add(1)
			acc.candidates.Add(int64(len(c)))
			return c
		}
		res := fn(cfg)
		acc.fill(s)
		s.Child = s.ProposeNs + s.TryNs
		s.Expanded = int64(res.Expanded)
		s.InvalidDuplicate = int64(res.InvalidDuplicate)
		s.Remote = remote
		t.end(s, parent)
		if remote {
			wb.busy.Add(s.dur())
		}
		return res
	}
}

// searchAcc totals one search's leaf calls. Tactic executions may run on
// the expander's worker goroutines, hence the atomics.
type searchAcc struct {
	proposeNs, proposeCalls, candidates atomic.Int64
	tryNs, tryCalls                     atomic.Int64
	applied, rejected, timeout          atomic.Int64
}

func (a *searchAcc) tried(d time.Duration, steps ...checker.Step) {
	a.tryNs.Add(int64(d))
	a.tryCalls.Add(int64(len(steps)))
	for _, st := range steps {
		switch st.Status {
		case checker.Applied:
			a.applied.Add(1)
		case checker.Rejected:
			a.rejected.Add(1)
		case checker.Timeout:
			a.timeout.Add(1)
		}
	}
}

func (a *searchAcc) fill(s *span) {
	s.ProposeNs, s.ProposeCalls, s.Candidates = a.proposeNs.Load(), a.proposeCalls.Load(), a.candidates.Load()
	s.TryNs, s.TryCalls = a.tryNs.Load(), a.tryCalls.Load()
	s.Applied, s.Rejected, s.Timeout = a.applied.Load(), a.rejected.Load(), a.timeout.Load()
}

// tracedBackend times the documents of one search.
type tracedBackend struct {
	inner checker.Backend
	acc   *searchAcc
}

func (b tracedBackend) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (checker.Doc, error) {
	d, err := b.inner.NewDoc(env, stmt, lemma)
	if err != nil {
		return nil, err
	}
	return wrapDoc(d, b.acc), nil
}

func (b tracedBackend) Close() error { return b.inner.Close() }

// wrapDoc times d's tactic executions and keeps exactly the optional
// interfaces d has, so the search engine takes the same path — scratch
// arenas in process, batched round trips over the wire — traced or not.
func wrapDoc(d checker.Doc, acc *searchAcc) checker.Doc {
	td := tracedDoc{inner: d, acc: acc}
	bd, isBatch := d.(checker.BatchDoc)
	st, isScratch := d.(checker.ScratchTryer)
	switch {
	case isBatch && isScratch:
		panic("perfbench: a document with both TryBatch and TryScratch needs its own traced wrapper")
	case isBatch:
		return &batchDoc{tracedDoc: td, bd: bd}
	case isScratch:
		return &scratchDoc{tracedDoc: td, st: st}
	}
	return &td
}

type tracedDoc struct {
	inner checker.Doc
	acc   *searchAcc
}

func (d *tracedDoc) Root() *tactic.State { return d.inner.Root() }
func (d *tracedDoc) Close() error        { return d.inner.Close() }

func (d *tracedDoc) Try(parent *tactic.State, path []string, sentence string) checker.Step {
	start := time.Now()
	s := d.inner.Try(parent, path, sentence)
	d.acc.tried(time.Since(start), s)
	return s
}

type scratchDoc struct {
	tracedDoc
	st checker.ScratchTryer
}

func (d *scratchDoc) TryScratch(parent *tactic.State, path []string, sentence string, sc *kernel.Scratch) checker.Step {
	start := time.Now()
	s := d.st.TryScratch(parent, path, sentence, sc)
	d.acc.tried(time.Since(start), s)
	return s
}

type batchDoc struct {
	tracedDoc
	bd checker.BatchDoc
}

func (d *batchDoc) TryBatch(parent *tactic.State, path []string, sentences []string) []checker.Step {
	start := time.Now()
	steps := d.bd.TryBatch(parent, path, sentences)
	d.acc.tried(time.Since(start), steps...)
	return steps
}

// workerBackend wraps a fleet worker's backend: it accumulates the time
// the worker spends in searches and still reports the backend's health to
// the coordinator.
type workerBackend struct {
	inner checker.Backend
	busy  atomic.Int64 // ns
}

func (b *workerBackend) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (checker.Doc, error) {
	return b.inner.NewDoc(env, stmt, lemma)
}

func (b *workerBackend) Close() error { return b.inner.Close() }

func (b *workerBackend) Health() checker.HealthSignals {
	if hr, ok := b.inner.(checker.HealthReporter); ok {
		return hr.Health()
	}
	return checker.HealthSignals{}
}
