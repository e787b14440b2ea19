// Package perfbench summarizes repeated performance measurements. The
// repository benchmark (bench/) takes every median it reports from
// Summarize, so all of its verdicts share one definition of the
// middle of a sample.
package perfbench

import "sort"

// Key identifies one measured metric: a benchmark or workload name
// plus a unit.
type Key struct {
	Benchmark string
	Unit      string
}

// Summary condenses the repeated measurements of one metric.
type Summary struct {
	Benchmark string
	Unit      string
	// Median is the middle sample, or the mean of the two middle
	// samples for an even count; zero when there are no samples.
	Median float64
}

// Summarize computes the summary of one metric's samples. It leaves
// the input unchanged.
func Summarize(k Key, samples []float64) Summary {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s := Summary{Benchmark: k.Benchmark, Unit: k.Unit}
	n := len(sorted)
	if n == 0 {
		return s
	}
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}
