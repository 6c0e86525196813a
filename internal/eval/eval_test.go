package eval

import (
	"strings"
	"testing"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/kernel"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
)

func runner(t testing.TB) (*Runner, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c, 2025)
	r.Parallelism = 8
	return r, c
}

func TestTestSetExcludesHints(t *testing.T) {
	r, c := runner(t)
	test := r.TestSet()
	if len(test)+len(r.HintSet) != len(c.Theorems) {
		t.Fatalf("partition broken: %d + %d != %d", len(test), len(r.HintSet), len(c.Theorems))
	}
	for _, th := range test {
		if r.HintSet[th.Name] {
			t.Fatalf("hint theorem %s in test set", th.Name)
		}
	}
}

func TestRestrictEnvCutsFuture(t *testing.T) {
	r, c := runner(t)
	th, _ := c.TheoremNamed("plus_comm")
	env := r.RestrictEnv(th)
	if _, ok := env.Lemmas["plus_comm"]; ok {
		t.Fatal("theorem can see itself")
	}
	if _, ok := env.Lemmas["mult_comm"]; ok {
		t.Fatal("theorem can see a later lemma")
	}
	if _, ok := env.Lemmas["plus_n_O"]; !ok {
		t.Fatal("earlier lemma missing")
	}
}

func TestRunTheoremDeterministic(t *testing.T) {
	r, c := runner(t)
	th, _ := c.TheoremNamed("plus_assoc")
	a := r.RunTheorem(model.GPT4o, prompt.Hint, th)
	b := r.RunTheorem(model.GPT4o, prompt.Hint, th)
	if a.Status != b.Status || a.Proof != b.Proof || a.Queries != b.Queries {
		t.Fatalf("nondeterministic outcomes: %+v vs %+v", a, b)
	}
}

// Proofs found by the search must replay in the restricted environment —
// the end-to-end integrity property of the whole pipeline.
func TestFoundProofsReplay(t *testing.T) {
	r, c := runner(t)
	ths := r.TestSet()
	if len(ths) > 25 {
		ths = ths[:25]
	}
	outs := r.RunSweep(model.GPT4o, prompt.Hint, ths)
	proved := 0
	for _, o := range outs {
		if o.Status != core.Proved {
			continue
		}
		proved++
		th, _ := c.TheoremNamed(o.Theorem)
		env := r.RestrictEnv(th)
		if err := replayCheck(env, th, o.Proof); err != nil {
			t.Errorf("%s: generated proof does not replay: %v", o.Theorem, err)
		}
	}
	if proved == 0 {
		t.Fatal("GPT-4o hinted proved nothing in the first 25 theorems")
	}
}

// A search's own claim is certified like any foreign record: a custom
// Search that answers Proved with a script the kernel rejects does not
// count, and the replay failure is counted once per claim on the counter
// every copy of the Runner shares.
func TestOwnSearchProofIsReplayed(t *testing.T) {
	r, c := runner(t)
	r.Search = func(core.Config) core.Result {
		return core.Result{Status: core.Proved, Proof: []string{"reflexivity"}, Queries: 1}
	}
	th, _ := c.TheoremNamed("plus_comm")
	out := r.RunTheorem(model.GPT4o, prompt.Hint, th)
	if out.Status == core.Proved || out.Proof != "" || out.GenTokens != 0 {
		t.Fatalf("a proof the kernel rejects counted: %+v", out)
	}
	if n := r.ReplayFailures(); n != 1 {
		t.Fatalf("ReplayFailures = %d; want 1", n)
	}
	ablation := *r
	ablation.Width = 2
	ablation.RunTheorem(model.GPT4o, prompt.Hint, th)
	if n := r.ReplayFailures(); n != 2 {
		t.Fatalf("ReplayFailures = %d after a failing copy; want 2 (the counter is shared)", n)
	}
}

func TestSweepTables(t *testing.T) {
	r, _ := runner(t)
	ths := r.TestSet()
	if len(ths) > 20 {
		ths = ths[:20]
	}
	sweep := NewSweep()
	for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
		sweep.Add(model.GPT4o.Name, setting.String(), r.RunSweep(model.GPT4o, setting, ths))
	}
	fig1a := sweep.Figure1a()
	if !strings.Contains(fig1a, "GPT-4o") || !strings.Contains(fig1a, "overall") {
		t.Fatalf("Figure 1a rendering:\n%s", fig1a)
	}
	t1 := sweep.Table1("GPT-4o")
	if !strings.Contains(t1, "Utilities") || !strings.Contains(t1, "File System") {
		t.Fatalf("Table 1 rendering:\n%s", t1)
	}
	t2 := sweep.Table2()
	if !strings.Contains(t2, "proved") || !strings.Contains(t2, "similarity") {
		t.Fatalf("Table 2 rendering:\n%s", t2)
	}
}

func TestBins(t *testing.T) {
	cases := map[int]int{0: 0, 15: 0, 16: 1, 31: 1, 32: 2, 63: 2, 64: 3, 512: 6, 9999: 6}
	for tokens, want := range cases {
		if got := BinOf(tokens); got != want {
			t.Errorf("BinOf(%d) = %d, want %d", tokens, got, want)
		}
	}
	if BinLabel(0) != "<16" || BinLabel(NumBins()-1) != ">=512" {
		t.Fatalf("labels: %s %s", BinLabel(0), BinLabel(NumBins()-1))
	}
}

func TestSubsampleDeterministic(t *testing.T) {
	r, _ := runner(t)
	a := r.Subsample(r.TestSet(), 0.1)
	b := r.Subsample(r.TestSet(), 0.1)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("sizes %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("subsample not deterministic")
		}
	}
}

// replayCheck verifies a generated proof against the restricted env.
func replayCheck(env *kernel.Env, th *corpus.Theorem, proof string) error {
	return tactic.CheckProof(env, th.Stmt, proof)
}
