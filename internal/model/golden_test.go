package model

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llmfscq/internal/corpus"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tactic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/propose_golden.txt from the current model")

const goldenPath = "testdata/propose_golden.txt"

// goldenSlates renders Propose's output over a fixed sample of corpus goals:
// every profile, hint and vanilla prompts, and the states along the first
// steps of each sampled theorem's human proof (so goals carry hypotheses,
// induction hypotheses and inverted premises). Each state is queried three
// times, which drives all three slate paths — first sighting (scratch),
// second sighting (memo promotion) and memo hit. Log-probabilities are
// rendered as their IEEE-754 bits: the model's output must stay bit-for-bit
// identical, not merely close.
func goldenSlates(t *testing.T) []byte {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	const stride, maxSteps = 31, 4
	var ths []*corpus.Theorem
	for i := 0; i < len(c.Theorems); i += stride {
		ths = append(ths, c.Theorems[i])
	}
	hints := prompt.HintSplit(c, 0.5, 1)
	var buf bytes.Buffer
	for _, prof := range Paper() {
		retr := NewRetrCache()
		for _, setting := range []prompt.Setting{prompt.Vanilla, prompt.Hint} {
			b := prompt.Builder{Corpus: c, Setting: setting, HintSet: hints, Window: prof.ContextWindow}
			for ti, th := range ths {
				pr := b.Build(th)
				ng := BuildNGram(pr)
				mdl := New(prof, c.Env)
				mdl.Retr = retr
				rng := rand.New(rand.NewSource(int64(1000 + ti)))
				exprs, err := tactic.ParseScript(th.Proof)
				if err != nil {
					t.Fatalf("%s: %v", th.Name, err)
				}
				st := tactic.NewState(c.Env, th.Stmt)
				var path []string
				for step := 0; step <= maxSteps && step <= len(exprs) && !st.Done(); step++ {
					for q := 0; q < 3; q++ {
						fmt.Fprintf(&buf, "%s|%s|%s|step %d|query %d\n", prof.Name, setting, th.Name, step, q)
						for _, cand := range mdl.Propose(pr, st, path, ng, rng) {
							fmt.Fprintf(&buf, "\t%016x %s\n", math.Float64bits(cand.LogProb), cand.Tactic)
						}
					}
					if step == len(exprs) {
						break
					}
					next, err := tactic.Apply(st, exprs[step])
					if err != nil {
						t.Fatalf("%s step %d: %v", th.Name, step, err)
					}
					st = next
					path = append(path, tactic.ExprString(exprs[step])+".")
				}
			}
		}
	}
	return buf.Bytes()
}

// TestProposeGolden pins the model's slates against a recording: every
// candidate text and every log-probability bit must match. Regenerate with
// `go test ./internal/model -run TestProposeGolden -update` only for a change
// that is meant to alter what the model proposes.
func TestProposeGolden(t *testing.T) {
	got := goldenSlates(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("slate mismatch at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("slate length mismatch: got %d lines, want %d", len(gl), len(wl))
}
