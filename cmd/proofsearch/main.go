// Command proofsearch runs the best-first LLM proof search on one corpus
// theorem and reports the outcome, the generated proof, and how it compares
// to the human proof — a single-theorem slice of the paper's pipeline.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/tokenizer"
)

func main() {
	log.SetFlags(0)
	var (
		theorem   = flag.String("theorem", "", "corpus theorem to prove (empty: list all)")
		modelName = flag.String("model", "GPT-4o", "model profile (substring match)")
		setting   = flag.String("setting", "hint", "prompt setting: vanilla or hint")
		seed      = flag.Int64("seed", 2025, "experiment seed")
		fuel      = flag.Int("fuel", 128, "model query limit")
		width     = flag.Int("width", 8, "search width")
		reduced   = flag.Bool("reduced", false, "use the §4.3 dependency-reduced context")
	)
	flag.Parse()
	if err := validateFlags(options{setting: *setting, fuel: *fuel, width: *width}); err != nil {
		fmt.Fprintf(os.Stderr, "proofsearch: %v\n", err)
		os.Exit(2)
	}

	c, err := corpus.Default()
	if err != nil {
		log.Fatalf("loading corpus: %v", err)
	}
	if *theorem == "" {
		fmt.Printf("%-30s %-10s %-12s %s\n", "THEOREM", "FILE", "CATEGORY", "HUMAN TOKENS")
		for _, th := range c.Theorems {
			fmt.Printf("%-30s %-10s %-12s %d\n", th.Name, th.File, th.Category, tokenizer.Count(th.Proof))
		}
		return
	}
	th, ok := c.TheoremNamed(*theorem)
	if !ok {
		log.Fatalf("unknown theorem %q (run without -theorem to list)", *theorem)
	}
	var prof model.Profile
	found := false
	for _, p := range model.Paper() { // exact name wins
		if strings.EqualFold(p.Name, *modelName) {
			prof, found = p, true
			break
		}
	}
	if !found {
		for _, p := range model.Paper() {
			if strings.Contains(strings.ToLower(p.Name), strings.ToLower(*modelName)) {
				prof, found = p, true
				break
			}
		}
	}
	if !found {
		log.Fatalf("unknown model %q", *modelName)
	}
	set := prompt.Vanilla
	if *setting == prompt.Hint.String() {
		set = prompt.Hint
	}

	r := eval.NewRunner(c, *seed)
	r.QueryLimit = *fuel
	r.Width = *width
	if r.HintSet[th.Name] && set == prompt.Hint {
		fmt.Println("note: this theorem is in the hint set; its own proof is excluded from the prompt")
		delete(r.HintSet, th.Name)
	}

	var out eval.Outcome
	if *reduced {
		out = r.RunReduced(prof, set, th)
	} else {
		out = r.RunTheorem(prof, set, th)
	}

	fmt.Printf("theorem:   %s (%s, %s)\n", th.Name, th.File, th.Category)
	fmt.Printf("statement: %s\n", th.Stmt)
	fmt.Printf("model:     %s, setting %s, width %d, fuel %d\n", prof.Name, set, *width, *fuel)
	fmt.Printf("result:    %s after %d queries\n", out.Status, out.Queries)
	if out.Status == core.Proved {
		fmt.Printf("proof:     %s\n", out.Proof)
		fmt.Printf("human:     %s\n", strings.Join(strings.Fields(th.Proof), " "))
		fmt.Printf("tokens:    generated %d vs human %d; similarity %.3f\n",
			out.GenTokens, out.HumanTokens, out.Similarity)
	}
}

// options holds the flags validateFlags checks.
type options struct {
	setting     string
	fuel, width int
}

// validateFlags rejects flag values the search would otherwise silently
// replace: an unknown setting used to run as vanilla, and a non-positive
// fuel or width used to fall back to 128 and 8.
func validateFlags(o options) error {
	if o.setting != prompt.Vanilla.String() && o.setting != prompt.Hint.String() {
		return fmt.Errorf("unknown -setting %q (want vanilla or hint)", o.setting)
	}
	if o.fuel < 1 {
		return fmt.Errorf("-fuel must be >= 1, got %d", o.fuel)
	}
	if o.width < 1 {
		return fmt.Errorf("-width must be >= 1, got %d", o.width)
	}
	return nil
}
