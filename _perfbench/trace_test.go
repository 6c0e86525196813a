package main

import (
	"sync/atomic"
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/protocol"
	"llmfscq/internal/remote"
	"llmfscq/internal/tactic"
)

// spyBackend records which document method the search engine calls, below
// the traced wrapper: if the wrapper hid an optional interface, the engine
// would fall back to plain Try.
type spyBackend struct {
	inner                   checker.Backend
	tries, scratches, batch atomic.Int64
}

func (b *spyBackend) NewDoc(env *kernel.Env, stmt *kernel.Form, lemma string) (checker.Doc, error) {
	d, err := b.inner.NewDoc(env, stmt, lemma)
	if err != nil {
		return nil, err
	}
	sd := spyDoc{Doc: d, b: b}
	switch d := d.(type) {
	case checker.BatchDoc:
		return &spyBatchDoc{sd, d}, nil
	case checker.ScratchTryer:
		return &spyScratchDoc{sd, d}, nil
	}
	return &sd, nil
}

func (b *spyBackend) Close() error { return b.inner.Close() }

type spyDoc struct {
	checker.Doc
	b *spyBackend
}

func (d *spyDoc) Try(parent *tactic.State, path []string, sentence string) checker.Step {
	d.b.tries.Add(1)
	return d.Doc.Try(parent, path, sentence)
}

type spyScratchDoc struct {
	spyDoc
	st checker.ScratchTryer
}

func (d *spyScratchDoc) TryScratch(parent *tactic.State, path []string, sentence string, sc *kernel.Scratch) checker.Step {
	d.b.scratches.Add(1)
	return d.st.TryScratch(parent, path, sentence, sc)
}

type spyBatchDoc struct {
	spyDoc
	bd checker.BatchDoc
}

func (d *spyBatchDoc) TryBatch(parent *tactic.State, path []string, sentences []string) []checker.Step {
	d.b.batch.Add(1)
	return d.bd.TryBatch(parent, path, sentences)
}

// tracedOutcomes runs a few GPT-4o hint searches with and without the
// traced search wrapper, both through spy over be, and returns the spy of
// the traced runs.
func tracedOutcomes(t *testing.T, c *corpus.Corpus, be checker.Backend) *spyBackend {
	t.Helper()
	r := eval.NewRunner(c, 2025)
	ths := r.TestSet()[:6]
	plain := *r
	plain.Backend = &spyBackend{inner: be}
	spy := &spyBackend{inner: be}
	tr := newTracer()
	traced := *r
	traced.Backend = spy
	traced.Search, traced.SearchName = tr.search(core.BestFirst, nil), "best-first"
	for _, th := range ths {
		want := plain.RunTheorem(model.GPT4o, prompt.Hint, th)
		if got := traced.RunTheorem(model.GPT4o, prompt.Hint, th); got != want {
			t.Errorf("%s: traced outcome %+v, untraced %+v", th.Name, got, want)
		}
	}
	var tries int64
	for _, s := range tr.spans {
		tries += s.TryCalls
	}
	if len(tr.spans) != len(ths) || tries == 0 {
		t.Errorf("traced %d searches with %d tactic executions, want %d searches and some executions", len(tr.spans), tries, len(ths))
	}
	return spy
}

func TestTracedInProcessDocKeepsScratchPath(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	spy := tracedOutcomes(t, c, checker.InProcess{})
	if spy.scratches.Load() == 0 || spy.tries.Load() != 0 || spy.batch.Load() != 0 {
		t.Errorf("in process: TryScratch %d, Try %d, TryBatch %d calls; want only TryScratch",
			spy.scratches.Load(), spy.tries.Load(), spy.batch.Load())
	}
}

func TestTracedRemoteDocKeepsBatchPath(t *testing.T) {
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	srv := protocol.NewServer(c.Env)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // Serve returns when Close stops the listener.
	defer srv.Close()
	be := remote.New(addr, remote.DefaultPolicy())
	be.Batch = true
	spy := tracedOutcomes(t, c, be)
	if spy.batch.Load() == 0 || spy.tries.Load() != 0 || spy.scratches.Load() != 0 {
		t.Errorf("remote: TryBatch %d, Try %d, TryScratch %d calls; want only TryBatch",
			spy.batch.Load(), spy.tries.Load(), spy.scratches.Load())
	}
	if n := be.Stats.Mismatches.Load(); n != 0 {
		t.Errorf("%d wire/mirror mismatches", n)
	}
}

// healthyBackend is an in-process backend that reports fixed signals.
type healthyBackend struct {
	checker.InProcess
	sig checker.HealthSignals
}

func (b healthyBackend) Health() checker.HealthSignals { return b.sig }

func TestWorkerBackendForwardsHealth(t *testing.T) {
	sig := checker.HealthSignals{WireChecks: 7, Retries: 3, BreakerOpen: true}
	var be checker.Backend = &workerBackend{inner: healthyBackend{sig: sig}}
	hr, ok := be.(checker.HealthReporter)
	if !ok {
		t.Fatal("wrapped worker backend does not report health")
	}
	if got := hr.Health(); got != sig {
		t.Errorf("Health() = %+v, want the inner backend's %+v", got, sig)
	}
}
