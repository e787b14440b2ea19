package perfbench

import (
	"testing"

	"pbsim/internal/stats"
)

func approx(t *testing.T, got, want float64, what string) {
	t.Helper()
	if !stats.ApproxEqual(got, want, 0) {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

func TestSummarizeMedian(t *testing.T) {
	// Odd count: exact middle.
	in := []float64{5, 1, 4, 2, 3}
	s := Summarize(Key{"X", "ns/op"}, in)
	approx(t, s.Median, 3, "median(1..5)")
	if s.Benchmark != "X" || s.Unit != "ns/op" {
		t.Errorf("key = %q/%q, want X/ns/op", s.Benchmark, s.Unit)
	}
	approx(t, in[0], 5, "input left unsorted")

	// Even count: mean of the two middle samples.
	s = Summarize(Key{"X", "ns/op"}, []float64{1, 2, 3, 10})
	approx(t, s.Median, 2.5, "median even")

	// No samples: zero median, no panic.
	approx(t, Summarize(Key{}, nil).Median, 0, "median of nothing")
}
