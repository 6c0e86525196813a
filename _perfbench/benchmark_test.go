package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) (benchmarkFile, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf, raw
}

func TestBenchmarkJSONShape(t *testing.T) {
	bf, raw := loadBenchmarkJSON(t)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("top-level keys %v, want %v", keys, want)
	}

	pathRE := regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
	if len(bf.Paths) < 1 || len(bf.Paths) > 16 {
		t.Errorf("%d paths, want 1 to 16", len(bf.Paths))
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings, want 1 to 32", len(bf.Command))
	}
	for _, a := range bf.Command {
		if len(a) > 200 || strings.HasPrefix(a, "/") || strings.Contains(a, "..") {
			t.Errorf("bad command string %q", a)
		}
		if strings.Contains(a, "/") && !strings.HasPrefix(a, bf.Paths[0]+"/") {
			t.Errorf("command names %q outside the benchmark's paths", a)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", bf.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)

	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 || len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the driver", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the driver", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, driver reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup, setupBound := false, 0.0
	for i, m := range bf.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d is %s/%s/%s, driver reports %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup, setupBound = m.Unit == "s" && m.Better == "lower", m.Bound
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range bf.EndToEnd {
		if m.Name != "setup_s" && m.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}

	if len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, driver reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d is %s/%s/%s, driver reports %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}
