package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestProgramSeedsAreADeterministicDrawFromThePool(t *testing.T) {
	inPool := map[int64]bool{}
	for _, p := range pool {
		inPool[p] = true
	}
	for _, seed := range []int64{2025, 1, 7} {
		all := programSeeds(seed, 0)
		if len(all) != len(pool) {
			t.Fatalf("seed %d: %d program seeds, want the whole pool of %d", seed, len(all), len(pool))
		}
		seen := map[int64]bool{}
		for _, s := range all {
			if !inPool[s] || seen[s] {
				t.Errorf("seed %d: program seed %d repeated or outside the pool", seed, s)
			}
			seen[s] = true
		}
		if again := programSeeds(seed, 0); !reflect.DeepEqual(again, all) {
			t.Errorf("seed %d: two draws differ: %v, %v", seed, all, again)
		}
		if first := programSeeds(seed, 3); !reflect.DeepEqual(first, all[:3]) {
			t.Errorf("seed %d: capped draw %v is not a prefix of %v", seed, first, all)
		}
	}
	if reflect.DeepEqual(programSeeds(1, 0), programSeeds(2, 0)) {
		t.Error("seeds 1 and 2 draw the same inputs")
	}
}

// Every invocation a run can make must have a recorded reference.
func TestReferencesCoverEveryWorkloadAndPoolSeed(t *testing.T) {
	refs, err := loadReferences(filepath.Join("reference", "sha256sums"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range pool {
			for _, cfg := range []config{w.cfg, w.cfg.prime()} {
				if _, err := refs.want(cfg, seed); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

func TestLoadReferencesRejectsMalformedLines(t *testing.T) {
	dir := t.TempDir()
	for _, body := range []string{"abc  all.seed1\n", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 all.seed1\n"} {
		path := filepath.Join(dir, "sums")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadReferences(path); err == nil {
			t.Errorf("accepted %q", body)
		}
	}
}

func TestConfigArgs(t *testing.T) {
	for _, c := range []struct {
		cfg  config
		want []string
	}{
		{config{all: true}, []string{"-all", "-seed", "5"}},
		{config{all: true, fuel: 64, store: freshStore}, []string{"-all", "-fuel", "64", "-proof-cache", "D", "-seed", "5"}},
		{config{model: "GPT-4o", workers: 2}, []string{"-fig1a", "-model", "GPT-4o", "-workers", "2", "-seed", "5"}},
		{config{model: "GPT-4o", workers: 2}.setup(), []string{"-fig1a", "-model", noModel, "-workers", "2", "-seed", "5"}},
		{config{all: true, store: sharedStore}.setup(), []string{"-fig1a", "-model", noModel, "-proof-cache", "D", "-seed", "5"}},
	} {
		if got := c.cfg.args(5, "D"); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%+v: args %v, want %v", c.cfg, got, c.want)
		}
	}
}
