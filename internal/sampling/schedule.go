package sampling

import (
	"fmt"
	"sync"

	"pbsim/internal/trace"
)

// Region geometry: the measured window of `instructions` instructions
// (after the experiment's global warmup) is cut into regions of
// RegionSize instructions; the final region absorbs the remainder, and
// a window shorter than one region is a single region.

// regionCount returns the number of regions in the measured window.
func regionCount(instructions, regionSize int64) int {
	n := instructions / regionSize
	if n < 1 {
		return 1
	}
	return int(n)
}

// regionLen returns region r's instruction length.
func regionLen(r, numRegions int, regionSize, instructions int64) int64 {
	if r == numRegions-1 {
		return instructions - int64(numRegions-1)*regionSize
	}
	return regionSize
}

// budgetFor converts the sampling fraction into a detailed region
// budget, clamped to [1, numRegions].
func budgetFor(numRegions int, fraction float64) int {
	b := int(fraction*float64(numRegions) + 0.5)
	if b < 1 {
		b = 1
	}
	if b > numRegions {
		b = numRegions
	}
	return b
}

// group is a maximal run of adjacent selected regions, measured off
// one continuous pipeline: the generator is restored to snap, the CPU
// functionally warms `funcWarm` instructions (predictors, caches,
// TLBs — the history a continuous run would carry in), detail-simulates
// `warmup` instructions to refill the pipeline itself, then reads one
// measured window per region (sim.RunRow).
type group struct {
	first    int     // the first region's index
	lens     []int64 // the lengths of regions first, first+1, ...
	funcWarm int64   // functionally-warmed instructions before the detailed warmup
	warmup   int64   // detailed warmup before the first region
	snap     trace.Snapshot
}

// schedule is the per-(workload, window, spec) sampling decision: the
// plan, its regions grouped for measurement, and generator snapshots
// that let every design row re-enter the stream in O(region) work.
// Schedules are immutable once built and shared across concurrent
// rows.
type schedule struct {
	spec       Spec
	numRegions int
	budget     int
	plan       Plan
	regions    []int
	groups     []group
	// functional is the one-time generator-walk cost (in instructions)
	// of building the schedule: the proxy pass (when the estimator
	// needs one) plus the snapshot pass.
	functional int64
}

// scheduleKey memoizes schedules the same way trace memoizes compiled
// programs: by value, one entry per distinct workload x window x spec.
type scheduleKey struct {
	params               trace.Params
	warmup, instructions int64
	spec                 Spec
}

var schedules sync.Map // scheduleKey -> *schedule

// scheduleFor returns the memoized schedule, building it on first use.
// Two goroutines racing on the same key both build identical schedules
// (selection is deterministic) and the first store wins.
func scheduleFor(gen *trace.Generator, warmup, instructions int64, spec Spec) (*schedule, error) {
	key := scheduleKey{params: gen.Params(), warmup: warmup, instructions: instructions, spec: spec}
	if cached, ok := schedules.Load(key); ok {
		return cached.(*schedule), nil
	}
	sch, err := buildSchedule(gen, warmup, instructions, spec)
	if err != nil {
		return nil, err
	}
	actual, _ := schedules.LoadOrStore(key, sch)
	return actual.(*schedule), nil
}

// buildSchedule runs the functional passes for one schedule: an
// optional proxy pass to score regions, the estimator's seeded
// selection, and a snapshot pass capturing the generator at each
// group's warmup start.
func buildSchedule(gen *trace.Generator, warmup, instructions int64, spec Spec) (*schedule, error) {
	est, err := ByName(spec.Estimator)
	if err != nil {
		return nil, err
	}
	numRegions := regionCount(instructions, spec.RegionSize)
	budget := budgetFor(numRegions, spec.Fraction)
	if budget >= numRegions {
		return nil, fmt.Errorf("sampling: budget %d covers all %d regions; the census path should not build a schedule", budget, numRegions)
	}
	sch := &schedule{spec: spec, numRegions: numRegions, budget: budget}

	var proxy []float64
	if est.NeedsProxy() {
		gen.Reset()
		proxy = profile(gen, warmup, numRegions, spec.RegionSize, instructions)
		sch.functional += gen.Emitted()
	}

	// The selection stream mixes the user seed with the workload seed:
	// benchmarks sample independently, yet the same (workload, spec)
	// always selects the same regions.
	rng := trace.NewRNG(spec.Seed ^ mix64(gen.Params().Seed))
	plan, err := est.Plan(numRegions, budget, spec, proxy, rng)
	if err != nil {
		return nil, err
	}
	sch.plan = plan
	sch.regions = plan.Regions()
	if err := validateRegions(sch.regions, numRegions); err != nil {
		return nil, err
	}

	// Group adjacent regions and capture one snapshot per group at its
	// warmup start (clamped at the stream origin).
	for _, r := range sch.regions {
		n := regionLen(r, numRegions, spec.RegionSize, instructions)
		if k := len(sch.groups) - 1; k >= 0 && sch.groups[k].first+len(sch.groups[k].lens) == r {
			sch.groups[k].lens = append(sch.groups[k].lens, n)
			continue
		}
		sch.groups = append(sch.groups, group{first: r, lens: []int64{n}})
	}
	gen.Reset()
	for gi := range sch.groups {
		g := &sch.groups[gi]
		start := warmup + int64(g.first)*spec.RegionSize
		// The warmups reach back from the region start, clamped to the
		// stream available between the previous snapshot position and
		// here (the pass walks forward only; at the stream origin there
		// is no prefix to warm from). The detailed warmup keeps priority
		// over the functional one: it is the shorter and the closer.
		avail := start - gen.Emitted()
		g.warmup = spec.RegionWarmup
		if g.warmup > avail {
			g.warmup = avail
		}
		g.funcWarm = spec.FuncWarmup
		if g.funcWarm > avail-g.warmup {
			g.funcWarm = avail - g.warmup
		}
		gen.Skip(start - g.warmup - g.funcWarm - gen.Emitted())
		g.snap = gen.Snapshot()
	}
	sch.functional += gen.Emitted()
	return sch, nil
}

// validateRegions checks a plan's selection: distinct, ascending, in
// range.
func validateRegions(regions []int, numRegions int) error {
	if len(regions) == 0 {
		return fmt.Errorf("sampling: plan selected no regions")
	}
	for i, r := range regions {
		if r < 0 || r >= numRegions {
			return fmt.Errorf("sampling: plan selected region %d outside 0..%d", r, numRegions-1)
		}
		if i > 0 && r <= regions[i-1] {
			return fmt.Errorf("sampling: plan regions not strictly ascending at index %d", i)
		}
	}
	return nil
}

// detailedPerRun returns the detailed-simulation instruction cost one
// design row pays under this schedule.
func (sch *schedule) detailedPerRun() int64 {
	var total int64
	for _, g := range sch.groups {
		total += g.warmup
		for _, n := range g.lens {
			total += n
		}
	}
	return total
}

// funcWarmPerRun returns the functional-warming instruction cost one
// design row pays under this schedule.
func (sch *schedule) funcWarmPerRun() int64 {
	var total int64
	for _, g := range sch.groups {
		total += g.funcWarm
	}
	return total
}

// mix64 is the splitmix64 finalizer, used to decorrelate the
// per-workload selection stream from the user-visible sampling seed.
//
//pbcheck:pure
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
