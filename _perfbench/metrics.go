package main

import (
	"fmt"
	"regexp"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json declares the same
// names, units and directions; TestBenchmarkJSONShape keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of cmd/experiments sees, measured on the
// child process with tracing off. Failed runs are not a metric here: a
// metric must never read 0, so the failure fraction travels as the result's
// attempted/failed counts and is printed as fail_frac in the summary.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics, one group per module. Layers a
// workload does not reach read 0.
var perLayer = []metricDef{
	{"corpus.load_s", "s", "lower"},
	{"prompt.build_calls", "count", "lower"},
	{"prompt.build_s", "s", "lower"},
	{"model.propose_calls", "count", "lower"},
	{"model.propose_s", "s", "lower"},
	{"model.candidates", "count", "lower"},
	{"checker.try_calls", "count", "lower"},
	{"checker.try_s", "s", "lower"},
	{"checker.applied", "count", "higher"},
	{"checker.rejected", "count", "lower"},
	{"checker.timeout", "count", "lower"},
	{"checker.applied_frac", "frac", "higher"},
	{"core.searches", "count", "lower"},
	{"core.search_s", "s", "lower"},
	{"core.self_s", "s", "lower"},
	{"core.expanded", "count", "lower"},
	{"core.invalid_duplicate", "count", "lower"},
	{"core.trycache_hits", "count", "higher"},
	{"core.trycache_misses", "count", "lower"},
	{"core.trycache_hit_frac", "frac", "higher"},
	{"eval.unit_s", "s", "lower"},
	{"eval.unit_self_s", "s", "lower"},
	{"eval.replay_fail", "count", "lower"},
	{"store.open_s", "s", "lower"},
	{"store.flush_s", "s", "lower"},
	{"store.disk_bytes", "bytes", "lower"},
	{"store.outcome_hits", "count", "higher"},
	{"store.outcome_misses", "count", "lower"},
	{"store.outcome_hit_frac", "frac", "higher"},
	{"store.mirror_checks", "count", "lower"},
	{"store.appends", "count", "lower"},
	{"store.try_warmed", "count", "higher"},
	{"remote.wire_checks", "count", "lower"},
	{"remote.retries", "count", "lower"},
	{"remote.try_s", "s", "lower"},
	{"sweep.units", "count", "lower"},
	{"sweep.steals", "count", "lower"},
	{"sweep.duplicates", "count", "lower"},
	{"sweep.worker_busy_s", "s", "lower"},
	{"sweep.imbalance", "ratio", "lower"},
	{"kernel.intern_hit_frac", "frac", "higher"},
	{"gc.cycles", "count", "lower"},
	{"gc.cpu_s", "s", "lower"},
	{"heap.alloc_bytes", "bytes", "lower"},
	{"heap.allocs", "count", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkDefs rejects a metric list with a malformed or repeated name, so a
// typo in the tables above fails before any run.
func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher, not %q", d.Name, d.Better)
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills one value per definition, in definition order, and fails if
// a definition has no value or a value has no definition.
func report(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("no value measured for metric %s", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("values measured for undeclared metrics %v", extra)
	}
	return out, nil
}
