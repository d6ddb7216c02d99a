// Package metrics holds the exact-sample instruments the workload
// generators, node daemons and experiment harnesses read: time series
// sampled on the virtual clock, and histograms that keep every
// observation for exact percentile queries. Counters, gauges and the
// exported series namespace (Prometheus text at /v1/metrics) live in
// internal/obs.
package metrics

import (
	"math"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Sample is one (virtual time, value) observation.
type Sample struct {
	At    sim.Time
	Value float64
}

// TimeSeries records samples against the virtual clock. The zero value is
// ready to use.
type TimeSeries struct {
	mu      sync.Mutex
	samples []Sample
}

// Record appends an observation.
func (ts *TimeSeries) Record(at sim.Time, v float64) {
	ts.mu.Lock()
	ts.samples = append(ts.samples, Sample{At: at, Value: v})
	ts.mu.Unlock()
}

// Samples returns a copy of all observations in record order.
func (ts *TimeSeries) Samples() []Sample {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Sample, len(ts.samples))
	copy(out, ts.samples)
	return out
}

// Len returns the number of observations.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.samples)
}

// Last returns the most recent observation, or false when empty.
func (ts *TimeSeries) Last() (Sample, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.samples) == 0 {
		return Sample{}, false
	}
	return ts.samples[len(ts.samples)-1], true
}

// Mean returns the arithmetic mean of all values, or 0 when empty.
func (ts *TimeSeries) Mean() float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ts.samples {
		sum += s.Value
	}
	return sum / float64(len(ts.samples))
}

// Max returns the maximum value, or 0 when empty.
func (ts *TimeSeries) Max() float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	max := 0.0
	for i, s := range ts.samples {
		if i == 0 || s.Value > max {
			max = s.Value
		}
	}
	return max
}

// TimeWeightedMean integrates the series as a piecewise-constant signal
// from the first sample to end and divides by the span. It returns 0 for
// fewer than one sample or a zero span.
func (ts *TimeSeries) TimeWeightedMean(end sim.Time) float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.samples) == 0 {
		return 0
	}
	start := ts.samples[0].At
	span := end.Sub(start).Seconds()
	if span <= 0 {
		return ts.samples[0].Value
	}
	total := 0.0
	for i, s := range ts.samples {
		segEnd := end
		if i+1 < len(ts.samples) {
			segEnd = ts.samples[i+1].At
		}
		if segEnd > end {
			segEnd = end
		}
		dt := segEnd.Sub(s.At).Seconds()
		if dt > 0 {
			total += s.Value * dt
		}
	}
	return total / span
}

// Histogram accumulates observations for percentile queries. The zero
// value is ready to use. It stores raw samples; for the scales this
// repository uses (≤ millions of observations) that is simple and exact.
type Histogram struct {
	mu     sync.Mutex
	vals   []float64
	sorted bool
	sum    float64
}

// Observe records a value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.vals = append(h.vals, v)
	h.sorted = false
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vals)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.vals) == 0 {
		return 0
	}
	return h.sum / float64(len(h.vals))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using nearest-rank on
// the sorted samples, or 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.vals)
	if n == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.vals)
		h.sorted = true
	}
	if q <= 0 {
		return h.vals[0]
	}
	if q >= 1 {
		return h.vals[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return h.vals[idx]
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 { return h.Quantile(1) }
