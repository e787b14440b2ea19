package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"pbsim/internal/pb"
	"pbsim/internal/sampling"
	"pbsim/internal/stats"
	"pbsim/internal/workload"
)

// This file is the accuracy-vs-speed frontier harness: it runs the
// full (unsampled) PB suite once as ground truth, reruns it under each
// sampling estimator, and reports where every estimator lands on the
// two axes that matter — how much detailed simulation it avoided, and
// how faithfully the sampled Table 9 ranking tracks the full one.

// DefaultMinSpearman is the rank-correlation gate: a sampled ranking
// below it does not preserve the paper's conclusions and fails the
// frontier.
const DefaultMinSpearman = 0.95

// FrontierOptions configures one frontier sweep.
type FrontierOptions struct {
	// Instructions / Warmup are the per-run budgets of both the full
	// and the sampled suites (defaults as in Options).
	Instructions int64
	Warmup       int64
	// Foldover selects the 2X-run design, as in Options.
	Foldover bool
	// Parallelism bounds concurrently simulated configurations.
	Parallelism int
	// Workloads restricts the benchmark suite; nil selects all 13.
	Workloads []workload.Workload
	// Estimators restricts the swept estimators; nil sweeps all three.
	Estimators []string
	// Spec carries the sampling parameters shared by every point; its
	// Estimator field is overridden per swept estimator.
	Spec sampling.Spec
	// MinSpearman overrides the rank-correlation gate (0 selects
	// DefaultMinSpearman).
	MinSpearman float64
}

// FrontierPoint is one estimator's position on the frontier.
type FrontierPoint struct {
	Estimator string `json:"estimator"`
	// Spearman is the rank correlation between the sampled and the full
	// sum-of-ranks factor orderings (1 = identical Table 9).
	Spearman float64 `json:"spearman"`
	// MeanCPIRelErr / MaxCPIRelErr summarize |sampled/full - 1| over
	// every (benchmark, configuration) response pair.
	MeanCPIRelErr float64 `json:"mean_cpi_rel_err"`
	MaxCPIRelErr  float64 `json:"max_cpi_rel_err"`
	// DetailedInstructions is the campaign-wide detail-simulated
	// instruction count under this estimator; FunctionalInstructions
	// counts the cycle-free warming and schedule passes that replace
	// the rest.
	DetailedInstructions   int64 `json:"detailed_instructions"`
	FunctionalInstructions int64 `json:"functional_instructions"`
	// InstrSpeedup is full detailed instructions over sampled detailed
	// instructions — the gated speedup axis. WallSpeedup is the
	// end-to-end wall-clock ratio, reported for context (it includes
	// the functional warming the instruction axis deliberately prices
	// separately).
	InstrSpeedup float64       `json:"instr_speedup"`
	WallSpeedup  float64       `json:"wall_speedup"`
	Wall         time.Duration `json:"wall_ns"`
	// Pass marks Spearman >= the gate.
	Pass bool `json:"pass"`
}

// FrontierReport is the outcome of one frontier sweep.
type FrontierReport struct {
	Instructions int64    `json:"instructions"`
	Warmup       int64    `json:"warmup"`
	Foldover     bool     `json:"foldover"`
	Benchmarks   []string `json:"benchmarks"`
	Runs         int      `json:"runs"`
	SampleSpec   string   `json:"sample_spec"`
	MinSpearman  float64  `json:"min_spearman"`
	// FullDetailedInstructions is the unsampled campaign's detailed
	// instruction count (the numerator of every speedup).
	FullDetailedInstructions int64           `json:"full_detailed_instructions"`
	FullWall                 time.Duration   `json:"full_wall_ns"`
	Points                   []FrontierPoint `json:"points"`
	// Pass is the conjunction of every point's gate.
	Pass bool `json:"pass"`
}

// RunFrontier executes the sweep: one full suite, then one sampled
// suite per estimator, all over identical workloads, budgets and
// design. Wall-clock timings are observational; every gated number is
// deterministic.
func RunFrontier(ctx context.Context, fopts FrontierOptions) (*FrontierReport, error) {
	if fopts.MinSpearman == 0 { //pbcheck:ignore floateq zero-value sentinel for an unset config field, exact by construction
		fopts.MinSpearman = DefaultMinSpearman
	}
	ests := fopts.Estimators
	if ests == nil {
		ests = sampling.Names()
	}
	base := Options{
		Instructions: fopts.Instructions,
		Warmup:       fopts.Warmup,
		Foldover:     fopts.Foldover,
		Parallelism:  fopts.Parallelism,
		Workloads:    fopts.Workloads,
	}
	// The effective budgets and workloads, defaulted exactly as every
	// suite below defaults them, for the cost accounting.
	plan, err := planCampaign(base)
	if err != nil {
		return nil, fmt.Errorf("frontier: full suite: %w", err)
	}
	n, warm := plan.opts.Instructions, plan.opts.Warmup

	t0 := time.Now()
	full, err := RunSuiteCtx(ctx, base)
	if err != nil {
		return nil, fmt.Errorf("frontier: full suite: %w", err)
	}
	fullWall := time.Since(t0)
	fullRanks := rankPermutation(full)
	rows := full.Design.Runs()
	perRunFull := warm + n
	fullDetailed := int64(rows) * int64(len(full.Benchmarks)) * perRunFull

	report := &FrontierReport{
		Instructions:             n,
		Warmup:                   warm,
		Foldover:                 fopts.Foldover,
		Benchmarks:               full.Benchmarks,
		Runs:                     rows,
		MinSpearman:              fopts.MinSpearman,
		FullDetailedInstructions: fullDetailed,
		FullWall:                 fullWall,
		Pass:                     true,
	}

	for _, est := range ests {
		spec := fopts.Spec
		spec.Estimator = est
		spec = spec.Normalized()
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("frontier: %w", err)
		}
		if report.SampleSpec == "" {
			// The shared (estimator-independent) parameters, canonical.
			report.SampleSpec = spec.String()
		}
		opts := base
		opts.Sampling = &spec

		t1 := time.Now()
		sampled, err := RunSuiteCtx(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("frontier: %s suite: %w", est, err)
		}
		wall := time.Since(t1)

		point := FrontierPoint{Estimator: est, Wall: wall}
		point.Spearman, err = stats.SpearmanRanks(fullRanks, rankPermutation(sampled))
		if err != nil {
			return nil, fmt.Errorf("frontier: %s: %w", est, err)
		}
		point.MeanCPIRelErr, point.MaxCPIRelErr, err = responseErrors(full, sampled)
		if err != nil {
			return nil, fmt.Errorf("frontier: %s: %w", est, err)
		}
		for _, w := range plan.ws {
			cost, err := sampling.CostOf(w.Params, warm, n, spec)
			if err != nil {
				return nil, fmt.Errorf("frontier: %s cost for %s: %w", est, w.Name, err)
			}
			point.DetailedInstructions += int64(rows) * cost.PerRunDetailed
			point.FunctionalInstructions += int64(rows)*cost.PerRunFunctional + cost.ScheduleFunctional
		}
		point.InstrSpeedup = float64(fullDetailed) / float64(point.DetailedInstructions)
		if wall > 0 {
			point.WallSpeedup = float64(fullWall) / float64(wall)
		}
		point.Pass = point.Spearman >= fopts.MinSpearman
		report.Pass = report.Pass && point.Pass
		report.Points = append(report.Points, point)
	}
	return report, nil
}

// rankPermutation converts a suite's sum-of-ranks ordering into a rank
// vector indexed by factor: ranks[f] = 1 for the most influential
// factor, and so on. Spearman over two such vectors compares the
// Table 9 conclusions of two experiments.
func rankPermutation(s *pb.Suite) []int {
	ranks := make([]int, len(s.Order))
	for pos, f := range s.Order {
		ranks[f] = pos + 1
	}
	return ranks
}

// responseErrors summarizes |sampled/full - 1| over all responses of
// two suites that ran the identical design and benchmarks. Responses
// are cycle counts over a fixed instruction budget, so relative cycle
// error and relative CPI error are the same number.
func responseErrors(full, sampled *pb.Suite) (mean, max float64, err error) {
	if len(full.Results) != len(sampled.Results) {
		return 0, 0, fmt.Errorf("suites differ in benchmark count (%d vs %d)", len(full.Results), len(sampled.Results))
	}
	var sum float64
	var count int
	for bi := range full.Results {
		fr, sr := full.Results[bi].Responses, sampled.Results[bi].Responses
		if len(fr) != len(sr) {
			return 0, 0, fmt.Errorf("benchmark %s: response counts differ (%d vs %d)", full.Benchmarks[bi], len(fr), len(sr))
		}
		for i := range fr {
			if fr[i] <= 0 {
				return 0, 0, fmt.Errorf("benchmark %s row %d: non-positive full response %v", full.Benchmarks[bi], i, fr[i])
			}
			rel := math.Abs(sr[i]/fr[i] - 1)
			sum += rel
			if rel > max {
				max = rel
			}
			count++
		}
	}
	return sum / float64(count), max, nil
}

// WriteText renders the report as an aligned text table.
func (r *FrontierReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Accuracy-vs-speed frontier: %d benchmarks x %d runs, n=%d warmup=%d\n",
		len(r.Benchmarks), r.Runs, r.Instructions, r.Warmup); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "sample spec: %s   gate: Spearman >= %.2f\n", r.SampleSpec, r.MinSpearman); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "full run: %d detailed instructions, %s wall\n\n", r.FullDetailedInstructions, r.FullWall.Round(time.Millisecond)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s %9s %9s %12s %12s %10s %8s\n",
		"estimator", "speedup", "wall-spd", "mean-cpi-err", "max-cpi-err", "spearman", "gate"); err != nil {
		return err
	}
	for _, p := range r.Points {
		gate := "PASS"
		if !p.Pass {
			gate = "FAIL"
		}
		if _, err := fmt.Fprintf(w, "%-12s %8.1fx %8.1fx %11.2f%% %11.2f%% %10.3f %8s\n",
			p.Estimator, p.InstrSpeedup, p.WallSpeedup, 100*p.MeanCPIRelErr, 100*p.MaxCPIRelErr, p.Spearman, gate); err != nil {
			return err
		}
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	_, err := fmt.Fprintf(w, "\nfrontier: %s\n", verdict)
	return err
}

// WriteMarkdown renders the report as a GitHub-flavored markdown table
// (the CI step summary).
func (r *FrontierReport) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### Accuracy-vs-speed frontier\n\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%d benchmarks x %d runs, n=%d warmup=%d, spec `%s`, gate Spearman >= %.2f, full run %d detailed instructions in %s.\n\n",
		len(r.Benchmarks), r.Runs, r.Instructions, r.Warmup, r.SampleSpec, r.MinSpearman,
		r.FullDetailedInstructions, r.FullWall.Round(time.Millisecond)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| estimator | instr speedup | wall speedup | mean CPI err | max CPI err | Spearman | gate |\n|---|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, p := range r.Points {
		gate := "pass"
		if !p.Pass {
			gate = "**FAIL**"
		}
		if _, err := fmt.Fprintf(w, "| %s | %.1fx | %.1fx | %.2f%% | %.2f%% | %.3f | %s |\n",
			p.Estimator, p.InstrSpeedup, p.WallSpeedup, 100*p.MeanCPIRelErr, 100*p.MaxCPIRelErr, p.Spearman, gate); err != nil {
			return err
		}
	}
	verdict := "**PASS**"
	if !r.Pass {
		verdict = "**FAIL**"
	}
	_, err := fmt.Fprintf(w, "\nFrontier gate: %s\n", verdict)
	return err
}
