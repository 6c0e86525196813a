package eval

import (
	"reflect"
	"testing"

	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
)

// jobsOf builds a synthetic grid: sizes[i] theorems in job i. The theorems
// need no content — partitioning is pure index arithmetic.
func jobsOf(t *testing.T, sizes ...int) []GridJob {
	t.Helper()
	_, c := runner(t)
	jobs := make([]GridJob, len(sizes))
	for i, n := range sizes {
		if n > len(c.Theorems) {
			t.Fatalf("test wants %d theorems, corpus has %d", n, len(c.Theorems))
		}
		jobs[i] = GridJob{Profile: model.GPT4oMini, Setting: prompt.Vanilla, Theorems: c.Theorems[:n]}
	}
	return jobs
}

func TestUnitsAndGridShape(t *testing.T) {
	jobs := jobsOf(t, 3, 0, 2)
	units := Units(jobs)
	want := []GridUnit{{0, 0}, {0, 1}, {0, 2}, {2, 0}, {2, 1}}
	if !reflect.DeepEqual(units, want) {
		t.Fatalf("Units = %v, want %v", units, want)
	}
	shape := GridShape(jobs)
	if len(shape) != 3 || len(shape[0]) != 3 || len(shape[1]) != 0 || len(shape[2]) != 2 {
		t.Fatalf("GridShape rows: %d/%d/%d", len(shape[0]), len(shape[1]), len(shape[2]))
	}
	if got := Units(nil); len(got) != 0 {
		t.Fatalf("Units(nil) = %v", got)
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	mk := func(n int) []GridUnit {
		units := make([]GridUnit, n)
		for i := range units {
			units[i] = GridUnit{Job: 0, Th: i}
		}
		return units
	}
	cases := []struct {
		name     string
		units    int
		n        int
		wantLens []int
	}{
		{"empty grid", 0, 4, []int{0, 0, 0, 0}},
		{"one unit many workers", 1, 4, []int{1, 0, 0, 0}},
		{"fewer units than workers", 3, 5, []int{1, 1, 1, 0, 0}},
		{"even split", 8, 4, []int{2, 2, 2, 2}},
		{"uneven split front-loads", 10, 4, []int{3, 3, 2, 2}},
		{"single worker", 7, 1, []int{7}},
		{"n=0 clamps to 1", 7, 0, []int{7}},
		{"n<0 clamps to 1", 7, -3, []int{7}},
	}
	for _, c := range cases {
		units := mk(c.units)
		shards := Partition(units, c.n)
		if len(shards) != len(c.wantLens) {
			t.Errorf("%s: %d shards, want %d", c.name, len(shards), len(c.wantLens))
			continue
		}
		// Shards must concatenate back to the unit list exactly: every
		// unit exactly once, order preserved, no shard nil.
		var cat []GridUnit
		for i, s := range shards {
			if s == nil {
				t.Errorf("%s: shard %d is nil (want empty slice)", c.name, i)
			}
			if len(s) != c.wantLens[i] {
				t.Errorf("%s: shard %d has %d units, want %d", c.name, i, len(s), c.wantLens[i])
			}
			cat = append(cat, s...)
		}
		if !reflect.DeepEqual(cat, units) && !(len(cat) == 0 && len(units) == 0) {
			t.Errorf("%s: concatenated shards differ from input", c.name)
		}
	}
}

// RunUnit must produce the same Outcome as RunTheorem on the matching
// coordinates.
func TestRunUnitMatchesRunTheorem(t *testing.T) {
	r, _ := runner(t)
	jobs := jobsOf(t, 2)
	u := GridUnit{Job: 0, Th: 1}
	direct := r.RunTheorem(jobs[0].Profile, jobs[0].Setting, jobs[0].Theorems[1])
	viaUnit := r.RunUnit(jobs, u)
	if !reflect.DeepEqual(direct, viaUnit) {
		t.Fatalf("RunUnit diverged from RunTheorem:\n%+v\nvs\n%+v", viaUnit, direct)
	}
}
