package tactic

import (
	"maps"
	"strings"
	"testing"

	"llmfscq/internal/kernel"
)

// clashSrc declares an inductive predicate whose rule variables collide with
// the names a goal typically has in scope: hypothesis names (H, H0, H1) and
// the free variables of the conclusion used below (y).
const clashSrc = `
Inductive clash : nat -> list nat -> Prop :=
| clash_nil : forall (H : nat), clash H nil
| clash_cons : forall (H H0 x : nat) (l : list nat), clash H l -> le x H0 -> clash (S H) (cons H0 l)
| clash_free : forall (y H1 : nat) (l : list nat), le y H1 -> clash y l.
`

// clashGoal is k x : nat, l : list nat, H : clash (S k) (cons x l),
// H0 : le x k |- le H3 y, whose conclusion mentions two variables that are
// not in the context (H3, y), so freshening must avoid them too.
func clashGoal(env *kernel.Env) *Goal {
	natT := kernel.MkType("nat", nil, false)
	listT := kernel.MkType("list", []*kernel.Type{natT}, false)
	return &Goal{
		Vars: []kernel.TypedVar{{Name: "k", Type: natT}, {Name: "x", Type: natT}, {Name: "l", Type: listT}},
		Hyps: []Hyp{
			{Name: "H", Form: kernel.Pred("clash", kernel.A("S", kernel.V("k")), kernel.A("cons", kernel.V("x"), kernel.V("l")))},
			{Name: "H0", Form: kernel.Pred("le", kernel.V("x"), kernel.V("k"))},
		},
		Concl: kernel.Pred("le", kernel.V("H3"), kernel.V("y")),
	}
}

// invertPerRule is the reference inversion: it recomputes the goal's used
// names from scratch for every rule instead of sharing one set.
func invertPerRule(t *testing.T, env *kernel.Env, g *Goal, hname string, clear bool) []*Goal {
	t.Helper()
	h, _ := g.HypNamed(hname)
	base := g
	if clear {
		base = g.RemoveHyp(hname)
	}
	p := env.Preds[h.Form.Pred]
	var out []*Goal
	for i := range p.Rules {
		sub, err := invertRule(env, base, &p.Rules[i], h.Form.Args, base.usedNames())
		if err != nil {
			t.Fatal(err)
		}
		if sub != nil {
			out = append(out, sub)
		}
	}
	return out
}

func renderGoals(gs []*Goal) string {
	parts := make([]string, len(gs))
	for i, g := range gs {
		parts[i] = g.String()
	}
	return strings.Join(parts, "\n----\n")
}

// TestInversionFreshNames pins the names inversion invents when rule
// variables collide with hypothesis names and conclusion variables: the
// once-per-goal freshness set must name every variable and hypothesis
// exactly as recomputing the set for each rule does.
func TestInversionFreshNames(t *testing.T) {
	env := buildEnvWith(t, clashSrc)
	for _, tc := range []struct {
		clear bool
		want  string
	}{
		{false, `k : nat
x : nat
l : list nat
x0 : nat
H : clash (S k) (x :: l)
H0 : le x k
H1 : clash k l
H2 : le x0 x
============================
le H3 y
----
k : nat
x : nat
l : list nat
H1 : nat
H : clash (S k) (x :: l)
H0 : le x k
H2 : le (S k) H1
============================
le H3 y`},
		{true, `k : nat
x : nat
l : list nat
x0 : nat
H0 : le x k
H : clash k l
H1 : le x0 x
============================
le H3 y
----
k : nat
x : nat
l : list nat
H1 : nat
H0 : le x k
H : le (S k) H1
============================
le H3 y`},
	} {
		g := clashGoal(env)
		got, err := tacInversion(env, g, "H", tc.clear)
		if err != nil {
			t.Fatalf("clear=%v: %v", tc.clear, err)
		}
		if s := renderGoals(got); s != tc.want {
			t.Errorf("clear=%v: inversion goals:\n%s\nwant:\n%s", tc.clear, s, tc.want)
		}
		if ref := renderGoals(invertPerRule(t, env, g, "H", tc.clear)); ref != renderGoals(got) {
			t.Errorf("clear=%v: shared freshness set diverges from per-rule recomputation:\n%s\nwant:\n%s", tc.clear, renderGoals(got), ref)
		}
		// The shared set comes back from every rule exactly as it was lent.
		base := g
		if tc.clear {
			base = g.RemoveHyp("H")
		}
		used := base.usedNames()
		h, _ := g.HypNamed("H")
		for i := range env.Preds["clash"].Rules {
			if _, err := invertRule(env, base, &env.Preds["clash"].Rules[i], h.Form.Args, used); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(used, base.usedNames()) {
				t.Fatalf("clear=%v: rule %d left the freshness set changed: %v", tc.clear, i, used)
			}
		}
		// The hypothesis names must also survive the sentence path.
		name := "inversion H."
		if tc.clear {
			name = "inversion_clear H."
		}
		st, err := ApplySentence(&State{Env: env, Goals: []*Goal{g}}, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := renderGoals(st.Goals); s != tc.want {
			t.Errorf("%s: goals:\n%s\nwant:\n%s", name, s, tc.want)
		}
	}
}
