package sampling

import (
	"fmt"

	"pbsim/internal/stats"
	"pbsim/internal/trace"
)

// rankedSetEstimator is ranked-set sampling. Each cycle draws SetSize
// judgment sets of SetSize regions, ranks every set by the functional
// proxy (cheap), and detail-simulates one designated rank per set —
// rank 1 of the first set, rank 2 of the second, and so on — so each
// cycle contributes one balanced observation per rank stratum. The
// point estimate is the mean over all draws.
type rankedSetEstimator struct{}

func (rankedSetEstimator) Name() string     { return EstimatorRankedSet }
func (rankedSetEstimator) NeedsProxy() bool { return true }

type rankedSetPlan struct {
	draws   []int // designated regions, cycle-major: cycles x k
	k       int
	regions []int // distinct draws, ascending
}

func (rankedSetEstimator) Plan(numRegions, budget int, spec Spec, proxy []float64, rng *trace.RNG) (Plan, error) {
	if err := checkPlanArgs(numRegions, budget); err != nil {
		return nil, err
	}
	if len(proxy) != numRegions {
		return nil, fmt.Errorf("sampling: rankedset needs %d proxy scores, got %d", numRegions, len(proxy))
	}
	k := spec.SetSize
	if k > numRegions {
		k = numRegions
	}
	cycles := budget / k
	if cycles < 1 {
		cycles, k = 1, budget // tiny budget: one degenerate cycle
	}
	draws := make([]int, 0, cycles*k)
	set := make([]int, k)
	for c := 0; c < cycles; c++ {
		for rank := 0; rank < k; rank++ {
			sampleSet(set, numRegions, rng)
			rankSet(set, proxy)
			draws = append(draws, set[rank])
		}
	}
	return &rankedSetPlan{
		draws:   draws,
		k:       k,
		regions: dedupeSorted(append([]int(nil), draws...)),
	}, nil
}

// sampleSet fills set with distinct region indices drawn from the
// seeded selection stream (rejection on duplicates; set sizes are tiny
// relative to the population).
//
//pbcheck:hotpath
func sampleSet(set []int, numRegions int, rng *trace.RNG) {
	for i := range set {
		for {
			v := rng.Intn(numRegions)
			dup := false
			for j := 0; j < i; j++ {
				if set[j] == v {
					dup = true
					break
				}
			}
			if !dup {
				set[i] = v
				break
			}
		}
	}
}

// rankSet orders the judgment set by ascending proxy score (insertion
// sort — sets hold a handful of indices): the judgment ranking of
// ranked-set sampling, paid for with the functional pass alone, never
// with detailed simulation.
//
//pbcheck:hotpath
func rankSet(set []int, proxy []float64) {
	for i := 1; i < len(set); i++ {
		v := set[i]
		j := i - 1
		for j >= 0 && proxyLess(proxy, v, set[j]) {
			set[j+1] = set[j]
			j--
		}
		set[j+1] = v
	}
}

func (p *rankedSetPlan) Regions() []int { return p.regions }

func (p *rankedSetPlan) Estimate(cpi map[int]float64) (float64, error) {
	vals, err := gather(cpi, p.draws)
	if err != nil {
		return 0, err
	}
	return stats.Mean(vals), nil
}
