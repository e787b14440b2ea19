// Command simrun executes one processor simulation: a chosen synthetic
// benchmark on a chosen configuration, printing the full statistics
// report. With -bench all, the benchmarks are evaluated through the
// fault-tolerant runner: -par simulates several at once (reports
// still print in benchmark order; each is simulated once, and a
// failure fails the run naming its benchmark), and -checkpoint runs
// them over a campaign directory, so a rerun with the same flags skips
// finished benchmarks (those report their cycle count; the full
// statistics are only printed for benchmarks this process simulated).
// Several simrun processes started with identical flags and the same
// -checkpoint directory split the benchmarks between them.
//
// Observability: -metrics journals run events to JSONL, -progress
// prints live progress and an end-of-run summary, -debug-addr serves
// expvar and pprof.
//
// Usage:
//
//	simrun [-bench gzip] [-n 100000] [-warmup 30000]
//	       [-config default|all-low|all-high] [-precompute 0] [-par 1]
//	       [-checkpoint campaign/] [-shard-sync]
//	       [-sample uniform] [-sample-region 1000] [-sample-frac 0.1]
//	       [-metrics run.jsonl] [-progress] [-debug-addr localhost:6060]
//
// Sampled mode (-sample, with the -sample-* family) detail-simulates
// only a seeded subset of each benchmark's measured window
// (internal/sampling) and reports the extrapolated cycle count with
// its 95% confidence interval and the detailed-instruction reduction,
// instead of the full statistics report. It is mutually exclusive with
// -precompute (sampling measures the base pipeline, not an enhanced
// one). The sampling spec is part of the -checkpoint fingerprint, so a
// sampled campaign resumes like a full one and never mixes with it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/report"
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
	"pbsim/internal/sampling"
	"pbsim/internal/sim"
	"pbsim/internal/workload"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "simrun", run()))
}

func run() (err error) {
	bench := flag.String("bench", "gzip", "benchmark name (or 'all')")
	n := flag.Int64("n", experiment.DefaultInstructions, "instructions to measure")
	warmup := flag.Int64("warmup", experiment.DefaultWarmup, "instructions to warm up before measuring")
	configSel := flag.String("config", "default", "configuration: default, all-low, or all-high")
	precompute := flag.Int("precompute", 0, "enable instruction precomputation with a table of this many entries")
	par := flag.Int("par", 1, "benchmarks simulated in parallel")
	runFlags := experiment.RegisterRunFlags(flag.CommandLine)
	shardSync := flag.Bool("shard-sync", false, "fsync every -checkpoint commit (survives machine death, not just process death)")
	sampleFlags := sampling.RegisterFlags(flag.CommandLine)
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

	sampleSpec, err := sampleFlags()
	if err != nil {
		return obs.Usagef("%v", err)
	}
	// The fingerprint pins every flag that changes cycle counts AND the
	// benchmark list itself (row i means names[i]), so a campaign
	// directory is never resumed, or joined, under other flags.
	fp := fmt.Sprintf("simrun|config=%s|n=%d|warmup=%d|precompute=%d|benchmarks=%s",
		*configSel, *n, *warmup, *precompute, strings.Join(names, ","))
	if sampleSpec != nil {
		if *precompute > 0 {
			return obs.Usagef("-sample measures the base pipeline; it cannot be combined with -precompute")
		}
		fp += "|sample=" + sampleSpec.String()
	}
	rec := sess.Recorder()
	rec.SuiteStarted(fp, 1, len(names))

	// Row i simulates names[i] and leaves its report in reports[i]. A
	// campaign can execute a row twice (a stolen lease), so the slot is
	// written under a lock: both writers produce identical reports —
	// the simulator is deterministic — but identical bytes still need
	// one writer.
	var mu sync.Mutex
	reports := make([]string, len(names))
	task := func(ctx context.Context, i int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var text string
		var cycles float64
		var err error
		if sampleSpec != nil {
			text, cycles, err = runSampled(names[i], cfg, *n, *warmup, *sampleSpec)
		} else {
			text, cycles, err = runOne(names[i], cfg, *n, *warmup, *precompute)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", names[i], err)
		}
		mu.Lock()
		reports[i] = text
		mu.Unlock()
		return cycles, nil
	}
	var cycles []float64
	if runFlags.Checkpoint == "" {
		cycles, err = runner.Evaluate(ctx, len(names), task, runner.Config{Parallelism: *par, Scope: "simrun", Recorder: rec})
	} else {
		cycles, err = runCampaign(ctx, runFlags.Checkpoint, fp, len(names), task, *par, dist.Config{Sync: *shardSync, Recorder: rec})
	}
	if err != nil {
		return runFlags.Resumable(err)
	}
	for i, name := range names {
		if reports[i] == "" {
			fmt.Printf("%s: %.0f cycles (committed to the campaign earlier or by another process; rerun without -checkpoint for the full report)\n",
				name, cycles[i])
			continue
		}
		fmt.Print(reports[i])
	}
	return nil
}

// runCampaign evaluates the benchmark rows over the campaign directory
// dir (internal/runner/dist): each benchmark is one claimable unit in
// a single "simrun" scope, run by the given number of in-process
// workers.
func runCampaign(ctx context.Context, dir, fp string, rows int, task runner.Task, workers int, cfg dist.Config) ([]float64, error) {
	c, err := dist.Create(dir, dist.Manifest{
		Fingerprint: fp,
		Scopes:      []dist.ScopeSpec{{Name: "simrun", Rows: rows}},
		Spec:        map[string]string{"tool": "simrun"},
	})
	if err != nil {
		return nil, err
	}
	res, err := dist.Run(ctx, c.Dir(), func(ctx context.Context, _ string, row int) (float64, error) {
		return task(ctx, row)
	}, workers, cfg)
	if err != nil {
		return nil, err
	}
	return res.Responses("simrun")
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

// runOne simulates one benchmark in full and returns its statistics
// report and cycle count.
func runOne(name string, cfg sim.Config, n, warmup int64, precompute int) (string, float64, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return "", 0, err
	}
	gen, err := w.NewGenerator()
	if err != nil {
		return "", 0, err
	}
	var enh enhance.Spec
	if precompute > 0 {
		enh = enhance.Spec{Mechanism: enhance.MechPrecompute, TableSize: precompute}
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
