package sampling

import (
	"fmt"

	"pbsim/internal/sim"
	"pbsim/internal/trace"
)

// Result is one sampled simulation's outcome: the CPI estimate with
// its 95% confidence interval, the extrapolated cycle count over the
// measured window, and the cost accounting behind the
// accuracy-vs-speed frontier.
type Result struct {
	// Estimator names the scheme that produced the estimate.
	Estimator string
	// NumRegions is the region population of the measured window;
	// SampledRegions counts the distinct regions detail-simulated.
	NumRegions     int
	SampledRegions int
	// CPI is the whole-window estimate; CIHalf is the half-width of
	// its 95% confidence interval (zero for a census).
	CPI    float64
	CIHalf float64
	// Cycles extrapolates CPI over the measured window (for a census,
	// the exact simulated cycle count); CyclesCIHalf scales CIHalf the
	// same way.
	Cycles       float64
	CyclesCIHalf float64
	// DetailedInstructions is this run's detail-simulated cost,
	// including per-region warmup. FunctionalInstructions is this run's
	// functional-warming cost (predictor/cache training before each
	// group, roughly an order of magnitude cheaper per instruction than
	// detailed simulation). ScheduleFunctional is the one-time
	// generator-walk cost of the shared schedule (proxy + snapshot
	// passes), paid once per workload x spec and amortized across all
	// design rows; it is reported identically by every row.
	DetailedInstructions   int64
	FunctionalInstructions int64
	ScheduleFunctional     int64
	// Census marks the degenerate full-simulation path (budget covered
	// every region): the result is bit-identical to an unsampled run.
	Census bool
}

// Run executes one sampled simulation of the workload stream behind
// gen: global warmup instructions are skipped functionally, the
// measured window of `instructions` is region-sampled per spec, and
// the whole-window CPI is extrapolated with a 95% CI. The generator's
// position on entry is irrelevant (Run restores recorded snapshots);
// its allocations are reused. Selection is deterministic, so repeated
// calls — from any row of a PB design — measure identical regions.
func Run(cfg sim.Config, gen *trace.Generator, warmup, instructions int64, spec Spec) (Result, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if warmup < 0 || instructions <= 0 {
		return Result{}, fmt.Errorf("sampling: invalid warmup/measure counts (%d, %d)", warmup, instructions)
	}
	numRegions := regionCount(instructions, spec.RegionSize)
	budget := budgetFor(numRegions, spec.Fraction)
	if budget >= numRegions {
		return runCensus(cfg, gen, warmup, instructions, spec, numRegions)
	}
	sch, err := scheduleFor(gen, warmup, instructions, spec)
	if err != nil {
		return Result{}, err
	}
	cpi, detailed, funcWarm, err := measure(cfg, gen, sch, instructions)
	if err != nil {
		return Result{}, err
	}
	mean, half, err := sch.plan.Estimate(cpi)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Estimator:              spec.Estimator,
		NumRegions:             numRegions,
		SampledRegions:         len(sch.regions),
		CPI:                    mean,
		CIHalf:                 half,
		Cycles:                 mean * float64(instructions),
		CyclesCIHalf:           half * float64(instructions),
		DetailedInstructions:   detailed,
		FunctionalInstructions: funcWarm,
		ScheduleFunctional:     sch.functional,
	}, nil
}

// runCensus is the degenerate path when the budget covers every
// region: it runs the exact full-simulation sequence (prewarm, warmup,
// measure), so a Fraction of 1.0 reproduces the unsampled response bit
// for bit.
func runCensus(cfg sim.Config, gen *trace.Generator, warmup, instructions int64, spec Spec, numRegions int) (Result, error) {
	gen.Reset()
	gen.Replay(warmup + instructions)
	cpu, err := sim.New(cfg, gen, nil)
	if err != nil {
		return Result{}, err
	}
	cpu.PrewarmMemory()
	st, err := cpu.RunWithWarmup(warmup, instructions)
	if err != nil {
		return Result{}, err
	}
	cycles := float64(st.Cycles)
	return Result{
		Estimator:            spec.Estimator,
		NumRegions:           numRegions,
		SampledRegions:       numRegions,
		CPI:                  cycles / float64(instructions),
		Cycles:               cycles,
		DetailedInstructions: warmup + instructions,
		Census:               true,
	}, nil
}

// measure detail-simulates the schedule's groups: per group, the
// generator is restored to the recorded snapshot and replays the
// group's shared tape, a fresh CPU is functionally prewarmed,
// functionally warmed through the group's history window,
// detail-warmed, and each region's cycle count is read as one RunMore
// increment off the continuous pipeline.
func measure(cfg sim.Config, gen *trace.Generator, sch *schedule, instructions int64) (map[int]float64, int64, int64, error) {
	cpi := make(map[int]float64, len(sch.regions))
	var detailed, funcWarm int64
	for _, g := range sch.groups {
		if err := gen.Restore(g.snap); err != nil {
			return nil, 0, 0, err
		}
		gen.Replay(g.funcWarm + g.warmup + sch.regionsLen(g, instructions))
		cpu, err := sim.New(cfg, gen, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		cpu.PrewarmMemory()
		if g.funcWarm > 0 {
			cpu.WarmFunctional(g.funcWarm)
			funcWarm += g.funcWarm
		}
		if g.warmup > 0 {
			if _, err := cpu.RunMore(g.warmup); err != nil {
				return nil, 0, 0, fmt.Errorf("sampling: warmup before region %d: %w", g.first, err)
			}
			detailed += g.warmup
		}
		for r := g.first; r <= g.last; r++ {
			n := regionLen(r, sch.numRegions, sch.spec.RegionSize, instructions)
			st, err := cpu.RunMore(n)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("sampling: region %d: %w", r, err)
			}
			cpi[r] = float64(st.Cycles) / float64(n)
			detailed += n
		}
	}
	return cpi, detailed, funcWarm, nil
}

// Cost summarizes what a sampled run costs without simulating
// anything beyond the schedule's one-time functional passes; the
// frontier sweep uses it to account the speedup axis exactly.
type Cost struct {
	// PerRunDetailed is the detailed-instruction cost each design row
	// pays (warmup + measured regions; for a census, the full run).
	PerRunDetailed int64
	// PerRunFunctional is the functional-warming cost each design row
	// pays before its detailed work.
	PerRunFunctional int64
	// ScheduleFunctional is the one-time functional cost shared by all
	// rows of one workload x spec.
	ScheduleFunctional int64
	NumRegions         int
	SampledRegions     int
	Census             bool
}

// CostOf reports the sampling cost for one workload and window. It
// builds (or reuses) the memoized schedule, so a following Run pays no
// additional functional work.
func CostOf(p trace.Params, warmup, instructions int64, spec Spec) (Cost, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Cost{}, err
	}
	if warmup < 0 || instructions <= 0 {
		return Cost{}, fmt.Errorf("sampling: invalid warmup/measure counts (%d, %d)", warmup, instructions)
	}
	numRegions := regionCount(instructions, spec.RegionSize)
	if budgetFor(numRegions, spec.Fraction) >= numRegions {
		return Cost{
			PerRunDetailed: warmup + instructions,
			NumRegions:     numRegions,
			SampledRegions: numRegions,
			Census:         true,
		}, nil
	}
	gen, err := trace.NewGenerator(p)
	if err != nil {
		return Cost{}, err
	}
	sch, err := scheduleFor(gen, warmup, instructions, spec)
	if err != nil {
		return Cost{}, err
	}
	return Cost{
		PerRunDetailed:     sch.detailedPerRun(instructions),
		PerRunFunctional:   sch.funcWarmPerRun(),
		ScheduleFunctional: sch.functional,
		NumRegions:         numRegions,
		SampledRegions:     len(sch.regions),
	}, nil
}
