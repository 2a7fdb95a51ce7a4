package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {10, 0}, {20, 0.5}, {100, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The defining property: exactly ten samples lie beyond the
	// nearest-rank tail quantile.
	s := make([]float64, 2500)
	for i := range s {
		s[i] = float64(i)
	}
	v := quantile(s, tailQuantile(len(s)))
	if beyond := len(s) - 1 - int(v); beyond != 10 {
		t.Errorf("%d samples beyond the tail quantile, want 10", beyond)
	}
}

// The quartiles must match Python's statistics.quantiles(values, n=4),
// the spread rule the benchmark's runs are judged by.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5}, // the exclusive method extrapolates
	} {
		q1, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		head   []float64
		better string
		want   string
	}{
		{[]float64{10, 10.1, 9.95, 10.02, 10}, "lower", "within bound"},
		{[]float64{12, 12.1, 11.9, 12, 12.05}, "lower", "REGRESSED"},
		{[]float64{8, 8.1, 7.9, 8, 8.05}, "lower", "better"},
		{[]float64{8, 8.1, 7.9, 8, 8.05}, "higher", "REGRESSED"},
		{[]float64{6, 14, 10, 7, 13}, "lower", "unresolved"},
	} {
		if _, got := verdict(base, c.head, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.head, c.better, got, c.want)
		}
	}
}
