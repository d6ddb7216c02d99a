package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q < 1) of xs with the
// "exclusive" interpolation of Python's statistics.quantiles: the
// value at 1-based position q·(n+1), interpolated between neighbours
// and clamped to the outermost pair. For n = 1 it is the sole value.
// xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := pos - float64(j)
	return s[j-1] + delta*(s[j]-s[j-1])
}

// median is the 0.5 quantile (the mean of the middle pair for even n).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is the statistics every timing prints: median, quartiles and
// the highest percentile that still has at least tailMin samples above
// it, each with the count it came from.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	// TailP is the tail percentile (0.9 for p90) and Tail its value;
	// TailP is 0 when fewer than 4·tailMin samples exist.
	TailP float64
	Tail  float64
}

// tailMin is how many samples must lie beyond a reported percentile.
const tailMin = 10

// tailLadder lists the percentiles a summary may report, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tailPercentile returns the highest percentile on the ladder with at
// least tailMin of n samples beyond it, or 0 if none qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= tailMin-1e-9 {
			return p
		}
	}
	return 0
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
	if p := tailPercentile(len(xs)); p > 0 {
		s.TailP, s.Tail = p, quantile(xs, p)
	}
	return s
}

// String renders the summary with its sample count, e.g.
// "median 1.2 [q1 1.1, q3 1.3] p90 1.5 (n=120)".
func (s summary) String() string {
	if s.N == 0 {
		return "no samples (n=0)"
	}
	out := fmt.Sprintf("median %.6g [q1 %.6g, q3 %.6g]", s.Median, s.Q1, s.Q3)
	if s.TailP > 0 {
		out += fmt.Sprintf(" p%g %.6g", s.TailP*100, s.Tail)
	}
	return out + fmt.Sprintf(" (n=%d)", s.N)
}
