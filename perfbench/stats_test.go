package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spread is judged with.
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 1.0}, 0.275, 0.55, 0.825},
	}
	for _, c := range cases {
		got := []float64{quantile(c.xs, 0.25), quantile(c.xs, 0.5), quantile(c.xs, 0.75)}
		want := []float64{c.q1, c.q2, c.q3}
		for i := range got {
			if !near(got[i], want[i]) {
				t.Errorf("quartiles of %v = %v, want %v", c.xs, got, want)
				break
			}
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("quantile sorted its input in place")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, p, c.want)
		}
		if p > 0 && float64(c.n)*(1-p) < tailMin-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than %d samples beyond it", c.n, p, tailMin)
		}
	}
}

func TestSummaryPrintsSampleCount(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 120 || s.TailP != 0.9 || !near(s.Median, 60.5) {
		t.Fatalf("summary = %+v", s)
	}
	if out := s.String(); !strings.Contains(out, "p90") || !strings.HasSuffix(out, "(n=120)") {
		t.Errorf("summary renders as %q", out)
	}
	if out := summarize(nil).String(); !strings.Contains(out, "n=0") {
		t.Errorf("empty summary renders as %q", out)
	}
}
