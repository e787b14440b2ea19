package sampling

import (
	"sort"

	"pbsim/internal/stats"
	"pbsim/internal/trace"
)

// uniformEstimator is systematic sampling with a seeded phase: every
// stride-th region starting from a random offset. It is the SMARTS
// baseline — no pre-pass, unbiased under any region ordering, and its
// even spacing already captures coarse program phases. Variance is
// estimated with the simple-random-sampling formula plus
// finite-population correction (systematic samples of a
// non-periodically-varying stream behave like SRS, the standard
// approximation).
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
	return &srsPlan{regions: regions, numRegions: numRegions}, nil
}

// srsPlan estimates a mean and CI under the simple-random-sampling
// model; it is also the degenerate-cycle fallback of the ranked-set
// estimator.
type srsPlan struct {
	regions    []int
	numRegions int
}

func (p *srsPlan) Regions() []int { return p.regions }

func (p *srsPlan) Estimate(cpi map[int]float64) (float64, float64, error) {
	xs, err := gather(cpi, p.regions)
	if err != nil {
		return 0, 0, err
	}
	return stats.Mean(xs), srsHalf(stats.Variance(xs), len(xs), p.numRegions), nil
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
