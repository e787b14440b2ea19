// Command simrun executes one processor simulation: a chosen synthetic
// benchmark on a chosen configuration, printing the full statistics
// report. With -bench all, the benchmarks are evaluated through the
// fault-tolerant runner: -par simulates several at once (reports
// still print in benchmark order; each is simulated once, and a
// failure fails the run naming its benchmark). A run takes under a
// second at the default sizes, so there is nothing to checkpoint:
// campaigns worth resuming are pbrank's, pbenhance's and tablegen's.
//
// -enhance takes an enhancement's label (base, precompute-128,
// valuereuse-64, ...), the name it has in every campaign.
//
// Observability: -metrics journals run events to JSONL, -progress
// prints live progress and an end-of-run summary, -debug-addr serves
// expvar and pprof.
//
// Usage:
//
//	simrun [-bench gzip] [-n 100000] [-warmup 30000] [-par 0]
//	       [-config default|all-low|all-high] [-enhance base]
//	       [-sample est=stratified,frac=0.2,strata=6]
//	       [-metrics run.jsonl] [-progress] [-debug-addr localhost:6060]
//
// Sampled mode (-sample SPEC, an estimator name or the sampling spec's
// key=value text, as on pbrank) detail-simulates only a seeded subset
// of each benchmark's measured window (internal/sampling) and reports
// the extrapolated cycle count with its 95% confidence interval and
// the detailed-instruction reduction, instead of the full statistics
// report. It requires -enhance base (sampling measures the base
// pipeline, not an enhanced one).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/report"
	"pbsim/internal/runner"
	"pbsim/internal/sampling"
	"pbsim/internal/sim"
	"pbsim/internal/workload"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "simrun", run()))
}

func run() (err error) {
	bench := flag.String("bench", "gzip", "benchmark name (or 'all')")
	size := experiment.RegisterSizeFlags(flag.CommandLine)
	configSel := flag.String("config", "default", "configuration: default, all-low, or all-high")
	enh := enhance.RegisterFlag(flag.CommandLine, enhance.Spec{})
	sample := sampling.RegisterFlag(flag.CommandLine)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine, "simrun")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer obs.FoldClose(&err, sess)

	cfg, err := selectConfig(*configSel)
	if err != nil {
		return err
	}
	names := []string{*bench}
	if *bench == "all" {
		names = workload.Names()
	}

	sampleSpec := sample.Spec
	if sampleSpec != nil && *enh != (enhance.Spec{}) {
		return obs.Usagef("-sample measures the base pipeline; it cannot be combined with -enhance %s", enh)
	}
	n, warmup := size.Instructions, size.Warmup
	rec := sess.Recorder()
	// No campaign exists, so the suite has no fingerprint.
	rec.SuiteStarted("", 1, len(names))

	// Row i simulates names[i] and leaves its report in reports[i]; the
	// runner runs each row once, on one worker.
	reports := make([]string, len(names))
	task := func(ctx context.Context, i int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var text string
		var cycles float64
		var err error
		if sampleSpec != nil {
			text, cycles, err = runSampled(names[i], cfg, n, warmup, *sampleSpec)
		} else {
			text, cycles, err = runOne(names[i], cfg, n, warmup, *enh)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", names[i], err)
		}
		reports[i] = text
		return cycles, nil
	}
	if _, err := runner.Evaluate(ctx, len(names), task, runner.Config{Parallelism: size.Par, Scope: "simrun", Recorder: rec}); err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Print(r)
	}
	return nil
}

// runSampled evaluates one benchmark through the region-sampling layer
// and reports the estimate with its quantified error: the extrapolated
// cycle count ± the 95% confidence half-width, the CPI estimate, the
// sampled region count, and the detailed-instruction reduction against
// a full run of the same budgets.
func runSampled(name string, cfg sim.Config, n, warmup int64, spec sampling.Spec) (string, float64, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return "", 0, err
	}
	gen, err := w.NewGenerator()
	if err != nil {
		return "", 0, err
	}
	res, err := sampling.Run(cfg, gen, warmup, n, spec)
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.0f ± %.0f cycles (95%% CI), CPI %.4f ± %.4f\n",
		name, res.Cycles, res.CyclesCIHalf, res.CPI, res.CIHalf)
	if res.Census {
		fmt.Fprintf(&b, "  %s estimator: budget covered all %d regions — exact full simulation\n",
			res.Estimator, res.NumRegions)
		return b.String(), res.Cycles, nil
	}
	full := warmup + n
	fmt.Fprintf(&b, "  %s estimator: %d/%d regions detailed\n",
		res.Estimator, res.SampledRegions, res.NumRegions)
	fmt.Fprintf(&b, "  detailed %d of %d instructions (%.1fx reduction), functional warming %d (+%d schedule)\n",
		res.DetailedInstructions, full, float64(full)/float64(res.DetailedInstructions),
		res.FunctionalInstructions, res.ScheduleFunctional)
	return b.String(), res.Cycles, nil
}

func selectConfig(sel string) (sim.Config, error) {
	switch strings.ToLower(sel) {
	case "default":
		return sim.Default(), nil
	case "all-low", "all-high":
		lv := pb.Low
		if sel == "all-high" {
			lv = pb.High
		}
		levels := make([]pb.Level, 43)
		for i := range levels {
			levels[i] = lv
		}
		return sim.ConfigForLevels(levels), nil
	default:
		return sim.Config{}, obs.Usagef("unknown config %q", sel)
	}
}

// runOne simulates one benchmark in full under the enhancement enh and
// returns its statistics report and cycle count.
func runOne(name string, cfg sim.Config, n, warmup int64, enh enhance.Spec) (string, float64, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return "", 0, err
	}
	gen, err := w.NewGenerator()
	if err != nil {
		return "", 0, err
	}
	shortcut, err := enh.Shortcuts(w.Params, warmup+n)()
	if err != nil {
		return "", 0, err
	}
	var s [1]sim.Stats
	if err := sim.RunRow(cfg, gen, shortcut, 0, warmup, []int64{n}, s[:]); err != nil {
		return "", 0, err
	}
	return report.SimStats(name, s[0]) + "\n", float64(s[0].Cycles), nil
}
