// Command pbfrontier measures the accuracy-vs-speed frontier of
// sampled simulation: it runs the full Plackett-Burman suite once as
// ground truth, reruns it under each sampling estimator, and reports
// where every estimator lands on the two axes that matter — the
// detailed-instruction speedup, and the Spearman rank correlation of
// the sampled Table 9 ordering against the full one.
//
// The frontier is a gate, not just a report: any estimator whose
// Spearman falls below -min-spearman fails the run (exit 1), which is
// how CI refuses a sampling configuration that would change the
// paper's conclusions.
//
// Usage:
//
//	pbfrontier [-n 100000] [-warmup 30000] [-foldover]
//	           [-benchmarks gzip,mcf,...] [-estimators uniform,...]
//	           [-region 2000] [-frac 0.08] [-region-warmup -1]
//	           [-func-warmup 24000] [-seed 1] [-strata 4] [-set 3]
//	           [-min-spearman 0.95] [-par 0]
//	           [-json-out frontier.json] [-md-out frontier.md]
//
// Every gated number (speedups, errors, correlations) is a
// deterministic function of the flags; only the wall-clock columns
// vary between machines.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pbsim/internal/experiment"
	"pbsim/internal/obs"
	"pbsim/internal/sampling"
	"pbsim/internal/workload"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "pbfrontier", run(os.Args[1:], os.Stdout, os.Stderr)))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pbfrontier", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int64("n", experiment.DefaultInstructions, "instructions measured per configuration")
	warmup := fs.Int64("warmup", experiment.DefaultWarmup, "warmup instructions per configuration")
	foldover := fs.Bool("foldover", true, "run the 2X-configuration foldover design")
	benchList := fs.String("benchmarks", "", "comma-separated subset of benchmarks (default: all 13)")
	estList := fs.String("estimators", "", "comma-separated estimators to sweep (default: "+strings.Join(sampling.Names(), ",")+")")
	region := fs.Int64("region", sampling.DefaultRegionSize, "instructions per sampling region")
	frac := fs.Float64("frac", sampling.DefaultFraction, "fraction of regions to detail-simulate, in (0, 1]")
	regionWarm := fs.Int64("region-warmup", -1, "detailed warmup instructions before each sampled region (-1 = region/4, 0 disables)")
	funcWarm := fs.Int64("func-warmup", -1, "functionally warmed instructions before each region's detailed warmup (-1 = 8*region, 0 disables)")
	seed := fs.Uint64("seed", 1, "region-selection seed")
	strata := fs.Int("strata", sampling.DefaultStrata, "proxy-quantile strata (stratified estimator)")
	set := fs.Int("set", sampling.DefaultSetSize, "judgment-ranking set size (rankedset estimator)")
	minSpearman := fs.Float64("min-spearman", experiment.DefaultMinSpearman, "rank-correlation gate; any estimator below it fails the run")
	par := fs.Int("par", 0, "parallel simulations (default GOMAXPROCS)")
	jsonOut := fs.String("json-out", "", "write the JSON report to this file")
	mdOut := fs.String("md-out", "", "write the markdown report (CI step summary) to this file")
	if err := fs.Parse(args); err != nil {
		return obs.Usagef("%v", err)
	}
	if fs.NArg() > 0 {
		return obs.Usagef("unexpected arguments: %v", fs.Args())
	}
	ws, err := selectWorkloads(*benchList)
	if err != nil {
		return obs.Usagef("%v", err)
	}
	var ests []string
	if *estList != "" {
		for _, e := range strings.Split(*estList, ",") {
			ests = append(ests, strings.TrimSpace(e))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := experiment.RunFrontier(ctx, experiment.FrontierOptions{
		Instructions: *n,
		Warmup:       *warmup,
		Foldover:     *foldover,
		Parallelism:  *par,
		Workloads:    ws,
		Estimators:   ests,
		MinSpearman:  *minSpearman,
		Spec: sampling.Spec{
			RegionSize:   *region,
			Fraction:     *frac,
			RegionWarmup: *regionWarm,
			FuncWarmup:   *funcWarm,
			Seed:         *seed,
			Strata:       *strata,
			SetSize:      *set,
		},
	})
	if err != nil {
		return err
	}

	if err := rep.WriteText(stdout); err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "pbfrontier: wrote", *jsonOut)
	}
	if *mdOut != "" {
		if err := writeFile(*mdOut, rep.WriteMarkdown); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "pbfrontier: wrote", *mdOut)
	}
	if !rep.Pass {
		return fmt.Errorf("frontier gate failed: an estimator's Spearman fell below %.2f", rep.MinSpearman)
	}
	return nil
}

func selectWorkloads(list string) ([]workload.Workload, error) {
	if list == "" {
		return nil, nil // all
	}
	var ws []workload.Workload
	for _, name := range strings.Split(list, ",") {
		w, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func writeFile(path string, fn func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer obs.FoldClose(&err, f)
	return fn(f)
}
