package main

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.quantiles(xs, n=4), the
// function the spreads of BENCHMARK.json's bounds are computed with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.4, 0.41, 0.39, 0.45, 0.5, 0.38, 0.42}, [3]float64{0.39, 0.41, 0.45}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v %v %v, want 7 7 7", q1, q2, q3)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// A tail percentile is reported only where at least ten samples lie
// beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {40000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 1.005} }
	noisy := func(m float64) []float64 { return []float64{m * 0.7, m, m * 1.3, m * 0.8, m * 1.2} }
	cases := []struct {
		name       string
		def        metricDef
		base, head []float64
		want       verdict
	}{
		{"within bound", lower, steady(1), steady(1.05), same},
		{"slower beyond bound", lower, steady(1), steady(1.2), worse},
		{"faster beyond bound", lower, steady(1), steady(0.8), better},
		{"higher is better, dropped", higher, steady(100), steady(80), worse},
		{"higher is better, rose", higher, steady(100), steady(120), better},
		{"spread wider than bound", lower, noisy(1), noisy(1.05), unresolved},
		{"noisy but every head run faster", lower, noisy(2), noisy(1), better},
		{"no head runs", lower, steady(1), nil, unresolved},
	}
	for _, c := range cases {
		if got := judge(c.def, c.base, c.head); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}
