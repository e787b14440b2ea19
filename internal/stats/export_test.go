package stats

import (
	"fmt"
	"math"
)

// GeometricMean returns the geometric mean of strictly positive
// samples; it errors on non-positive input. SPEC-style summary numbers
// (the Giladi-Ahituv related work in Section 5.3) use this mean.
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geometric mean of empty sample")
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geometric mean requires positive samples, got %g", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// HarmonicMean returns the harmonic mean of strictly positive samples,
// the correct mean for rates such as IPC.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: harmonic mean of empty sample")
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: harmonic mean requires positive samples, got %g", x)
		}
		s += 1 / x
	}
	return float64(len(xs)) / s, nil
}

// Speedup returns base/enhanced, the conventional architecture
// speedup metric for execution times. A zero enhanced time yields
// +Inf (the enhancement eliminated all work), except that 0/0 has no
// defined speedup and yields NaN.
func Speedup(baseTime, enhancedTime float64) float64 {
	if ApproxEqual(enhancedTime, 0, 0) {
		if ApproxEqual(baseTime, 0, 0) {
			return math.NaN()
		}
		return math.Inf(1)
	}
	return baseTime / enhancedTime
}
