// Package methodology implements the simulation-methodology recipes
// the paper recommends: the four-step parameter-selection workflow of
// Section 4.1 (PB screening, then ANOVA sensitivity analysis over the
// critical parameters), the benchmark-classification flow of Section
// 4.2, and the before/after enhancement analysis of Section 4.3.
package methodology

import (
	"context"
	"fmt"

	"pbsim/internal/pb"
	"pbsim/internal/stats"
)

// Screening is the outcome of step 1: a Plackett-Burman screen that
// separates critical from non-critical parameters.
type Screening struct {
	Suite *pb.Suite
	// Critical holds factor indices in descending significance; the
	// remaining factors can be set to reasonable values with far less
	// caution (step 2).
	Critical []int
	// NonCritical holds the rest, in the sum-of-ranks order.
	NonCritical []int
}

// ScreenFromSuite runs step 1 over a PB suite result (pb.RunSuite or
// a merged campaign): it cuts the factor list at the sum-of-ranks
// significance gap, bounded by maxCritical (<= 0 means no bound).
func ScreenFromSuite(suite *pb.Suite, maxCritical int) *Screening {
	cut := pb.SignificanceGap(suite.Sums)
	if maxCritical > 0 && cut > maxCritical {
		cut = maxCritical
	}
	s := &Screening{Suite: suite}
	for i, f := range suite.Order {
		if i < cut {
			s.Critical = append(s.Critical, f)
		} else {
			s.NonCritical = append(s.NonCritical, f)
		}
	}
	return s
}

// Sensitivity is the outcome of step 3: a full-factorial ANOVA over
// the critical parameters only, quantifying their main effects and all
// of their interactions while the non-critical parameters stay fixed.
type Sensitivity struct {
	// Factors holds the indices (into the original factor list) that
	// were varied, in design-column order.
	Factors []int
	ANOVA   *stats.ANOVAResult
}

// maxSensitivityFactors bounds the 2^k sensitivity design.
const maxSensitivityFactors = 12

// SensitivityAnalysis performs step 3 for one response: every
// combination of the critical factors' levels is simulated (2^k runs),
// non-critical factors held at baseLevel, and the variation is
// allocated over main effects and interactions. The first failed run
// fails the analysis; ctx is passed to every run.
func SensitivityAnalysis(ctx context.Context, numFactors int, critical []int, response pb.Response, baseLevel pb.Level) (*Sensitivity, error) {
	k := len(critical)
	if k < 1 {
		return nil, fmt.Errorf("methodology: no critical factors")
	}
	if k > maxSensitivityFactors {
		return nil, fmt.Errorf("methodology: %d critical factors exceed the 2^%d full-factorial budget", k, maxSensitivityFactors)
	}
	for _, f := range critical {
		if f < 0 || f >= numFactors {
			return nil, fmt.Errorf("methodology: critical factor index %d out of range", f)
		}
	}
	rows, err := stats.FullFactorial(k)
	if err != nil {
		return nil, err
	}
	responses := make([]float64, len(rows))
	levels := make([]pb.Level, numFactors)
	for i, row := range rows {
		for j := range levels {
			levels[j] = baseLevel
		}
		for j, f := range critical {
			levels[f] = pb.Level(row[j])
		}
		if responses[i], err = response(ctx, levels); err != nil {
			return nil, fmt.Errorf("methodology: sensitivity run %d: %w", i, err)
		}
	}
	anova, err := stats.ANOVA(k, responses)
	if err != nil {
		return nil, err
	}
	return &Sensitivity{Factors: critical, ANOVA: anova}, nil
}

// EnhancementShift is one row of the Section 4.3 before/after
// comparison.
type EnhancementShift struct {
	Factor     pb.Factor
	SumBefore  int
	SumAfter   int
	Shift      int // positive: the factor lost significance
	RankBefore int // position in the before ordering (1 = most significant)
	RankAfter  int
}

// CompareEnhancement runs the Section 4.3 analysis over two suites
// measured before and after an enhancement, returning per-factor
// sum-of-ranks shifts ordered by the before-suite significance.
func CompareEnhancement(before, after *pb.Suite) ([]EnhancementShift, error) {
	if len(before.Sums) != len(after.Sums) {
		return nil, fmt.Errorf("methodology: factor counts differ (%d vs %d)", len(before.Sums), len(after.Sums))
	}
	posBefore := make([]int, len(before.Sums))
	for i, f := range before.Order {
		posBefore[f] = i + 1
	}
	posAfter := make([]int, len(after.Sums))
	for i, f := range after.Order {
		posAfter[f] = i + 1
	}
	shifts := make([]EnhancementShift, 0, len(before.Order))
	for _, f := range before.Order {
		shifts = append(shifts, EnhancementShift{
			Factor:     before.Factors[f],
			SumBefore:  before.Sums[f],
			SumAfter:   after.Sums[f],
			Shift:      after.Sums[f] - before.Sums[f],
			RankBefore: posBefore[f],
			RankAfter:  posAfter[f],
		})
	}
	return shifts, nil
}

// BiggestShift returns the significant factor (within the first
// topN positions of the before ordering) whose sum of ranks changed
// the most — the paper's headline observation that instruction
// precomputation most affects the number of integer ALUs.
func BiggestShift(shifts []EnhancementShift, topN int) (EnhancementShift, error) {
	if len(shifts) == 0 {
		return EnhancementShift{}, fmt.Errorf("methodology: no shifts")
	}
	if topN <= 0 || topN > len(shifts) {
		topN = len(shifts)
	}
	best := shifts[0]
	bestMag := abs(best.Shift)
	for _, s := range shifts[:topN] {
		if m := abs(s.Shift); m > bestMag {
			best, bestMag = s, m
		}
	}
	return best, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
