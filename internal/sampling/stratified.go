package sampling

import (
	"fmt"
	"math"

	"pbsim/internal/stats"
	"pbsim/internal/trace"
)

// stratifiedEstimator is two-phase stratified sampling: the functional
// proxy pass (phase one) scores every region, regions are grouped into
// proxy-quantile strata, and the detailed budget (phase two) is
// allocated proportionally to stratum size. Because regions within a
// proxy quantile behave alike, each stratum's sample mean stands for
// its stratum well whenever the proxy correlates with simulated cost —
// the mechanism that lets stratification beat uniform sampling at
// equal budget.
type stratifiedEstimator struct{}

func (stratifiedEstimator) Name() string     { return EstimatorStratified }
func (stratifiedEstimator) NeedsProxy() bool { return true }

// stratum is one proxy-quantile slice of the region population.
type stratum struct {
	members []int // region indices, ascending proxy order
	sampled []int // subset to detail-simulate
}

type stratifiedPlan struct {
	strata     []stratum
	regions    []int
	numRegions int
}

func (stratifiedEstimator) Plan(numRegions, budget int, spec Spec, proxy []float64, rng *trace.RNG) (Plan, error) {
	if err := checkPlanArgs(numRegions, budget); err != nil {
		return nil, err
	}
	if len(proxy) != numRegions {
		return nil, fmt.Errorf("sampling: stratified needs %d proxy scores, got %d", numRegions, len(proxy))
	}
	numStrata := spec.Strata
	// Each stratum needs at least one sampled region; shrink the
	// stratification rather than fail when the budget (or population)
	// is smaller than the requested stratum count.
	if numStrata > budget {
		numStrata = budget
	}
	if numStrata > numRegions {
		numStrata = numRegions
	}
	order := regionsByProxy(proxy)

	// Quantile strata: near-equal slices of the proxy-ordered regions,
	// the first numRegions%numStrata strata one region larger.
	strata := make([]stratum, numStrata)
	base, extra := numRegions/numStrata, numRegions%numStrata
	pos := 0
	for h := range strata {
		size := base
		if h < extra {
			size++
		}
		strata[h].members = order[pos : pos+size]
		pos += size
	}

	// Proportional allocation by largest remainder, with every stratum
	// guaranteed one sampled region and none allocated past its size.
	alloc := allocateProportional(strata, budget, numRegions)

	// Within a stratum, systematic selection over the proxy order with
	// a seeded phase spreads the sample across the stratum's own
	// proxy range.
	var regions []int
	for h := range strata {
		members, m := strata[h].members, alloc[h]
		stride := len(members) / m
		start := rng.Intn(stride)
		picks := selectSystematic(make([]int, 0, m), start, stride, m)
		for _, i := range picks {
			strata[h].sampled = append(strata[h].sampled, members[i])
		}
		regions = append(regions, strata[h].sampled...)
	}
	return &stratifiedPlan{strata: strata, regions: dedupeSorted(regions), numRegions: numRegions}, nil
}

// allocateProportional distributes the budget across strata
// proportionally to stratum size using the largest-remainder method,
// guaranteeing each stratum at least one sample and at most its size.
func allocateProportional(strata []stratum, budget, numRegions int) []int {
	alloc := make([]int, len(strata))
	rem := make([]float64, len(strata))
	used := 0
	for h := range strata {
		exact := float64(budget) * float64(len(strata[h].members)) / float64(numRegions)
		alloc[h] = int(exact)
		if alloc[h] < 1 {
			alloc[h] = 1
		}
		if alloc[h] > len(strata[h].members) {
			alloc[h] = len(strata[h].members)
		}
		rem[h] = exact - math.Floor(exact)
		used += alloc[h]
	}
	// Distribute the remaining budget by largest fractional part
	// (deterministic tie-break by stratum index); shed any excess from
	// the largest allocations. Both loops terminate because the budget
	// is within [len(strata), numRegions].
	for used < budget {
		best := -1
		for h := range strata {
			if alloc[h] >= len(strata[h].members) {
				continue
			}
			if best < 0 || rem[h] > rem[best] {
				best = h
			}
		}
		if best < 0 {
			break
		}
		alloc[best]++
		rem[best] = -1
		used++
	}
	for used > budget {
		best := -1
		for h := range strata {
			if alloc[h] <= 1 {
				continue
			}
			if best < 0 || alloc[h] > alloc[best] {
				best = h
			}
		}
		if best < 0 {
			break
		}
		alloc[best]--
		used--
	}
	return alloc
}

func (p *stratifiedPlan) Regions() []int { return p.regions }

// Estimate combines the strata: the point estimate is the
// size-weighted stratum mean.
func (p *stratifiedPlan) Estimate(cpi map[int]float64) (float64, error) {
	means := make([]float64, len(p.strata))
	for h := range p.strata {
		xs, err := gather(cpi, p.strata[h].sampled)
		if err != nil {
			return 0, err
		}
		means[h] = stats.Mean(xs)
	}

	est := 0.0
	n := float64(p.numRegions)
	for h := range p.strata {
		w := float64(len(p.strata[h].members)) / n
		est += w * means[h]
	}
	return est, nil
}
