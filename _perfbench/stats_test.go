package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{4}, 4},
		{[]float64{5, 1, 4}, 4},
		{[]float64{3.5, 1.25, 9, 2}, 2.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 7.625},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{7.2, 7.9, 8.1, 6.5, 9.3, 7.7, 8.0, 7.1, 6.9, 8.8, 7.4}, 7.1, 8.1},
		{[]float64{2, 2}, 2, 2},
		{[]float64{6}, 6, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	in := []float64{3, 1, 2}
	spread(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("spread reordered its input: %v", in)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, name := range []string{"wall_s", "core.self_s", "gc.cpu_s", "a-b.c_d", "9x"} {
		if err := checkDefs([]metricDef{{name, "s", "lower"}}); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", "wall s", "x/y", "µs", "_lead", ".lead", "a:b", strings.Repeat("a", 65)} {
		if err := checkDefs([]metricDef{{name, "s", "lower"}}); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
	if err := checkDefs([]metricDef{{"a", "s", "lower"}, {"a", "s", "lower"}}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := checkDefs([]metricDef{{"a", "s", "faster"}}); err == nil {
		t.Error("better=faster accepted")
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := checkDefs(defs); err != nil {
			t.Error(err)
		}
	}
}

func TestReportNeedsExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower"}, {"b", "count", "higher"}}
	got, err := report(defs, map[string]float64{"a": 1.5, "b": 0})
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != (metricValue{1.5, "s"}) || got["b"] != (metricValue{0, "count"}) {
		t.Errorf("report = %v", got)
	}
	if _, err := report(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("undeclared metric accepted")
	}
}

func TestSamplesWeighSeedsEqually(t *testing.T) {
	wall := func(x sample) float64 { return x.wall }
	ss := samples{
		1: {{wall: 10}, {wall: 11}, {wall: 100}},
		2: {{wall: 2}},
	}
	if got, want := ss.value(wall), (11.0+2.0)/2; got != want {
		t.Errorf("value = %g, want %g", got, want)
	}
	if got := len(ss.all(wall)); got != 4 {
		t.Errorf("all has %d figures, want 4", got)
	}
}
