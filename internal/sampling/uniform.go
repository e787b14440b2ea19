package sampling

import (
	"sort"

	"pbsim/internal/stats"
	"pbsim/internal/trace"
)

// uniformEstimator is systematic sampling with a seeded phase: every
// stride-th region starting from a random offset. It is the SMARTS
// baseline — no pre-pass, unbiased under any region ordering, and its
// even spacing already captures coarse program phases. The estimate is
// the plain mean of the sampled regions' CPIs.
type uniformEstimator struct{}

func (uniformEstimator) Name() string     { return EstimatorUniform }
func (uniformEstimator) NeedsProxy() bool { return false }

func (uniformEstimator) Plan(numRegions, budget int, _ Spec, _ []float64, rng *trace.RNG) (Plan, error) {
	if err := checkPlanArgs(numRegions, budget); err != nil {
		return nil, err
	}
	stride := numRegions / budget // >= 1 because budget <= numRegions
	start := rng.Intn(stride)
	regions := selectSystematic(make([]int, 0, budget), start, stride, budget)
	return uniformPlan(regions), nil
}

// uniformPlan estimates the mean CPI of its sampled regions.
type uniformPlan []int

func (p uniformPlan) Regions() []int { return p }

func (p uniformPlan) Estimate(cpi map[int]float64) (float64, error) {
	xs, err := gather(cpi, p)
	if err != nil {
		return 0, err
	}
	return stats.Mean(xs), nil
}

// dedupeSorted sorts indices ascending and removes duplicates in
// place, returning the distinct prefix.
func dedupeSorted(idx []int) []int {
	sort.Ints(idx)
	out := idx[:0]
	for i, v := range idx {
		if i == 0 || v != idx[i-1] {
			out = append(out, v)
		}
	}
	return out
}
