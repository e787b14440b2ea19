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
//	           [-sample region=2000,frac=0.08,fwarm=24000,seed=1]
//	           [-min-spearman 0.95] [-par 0]
//	           [-json-out frontier.json] [-md-out frontier.md]
//
// -sample takes the sampling spec's key=value text, as on pbrank; a
// key it leaves out takes its default, and -estimators sets est.
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
	size := experiment.RegisterSizeFlags(fs)
	foldover := fs.Bool("foldover", true, "run the 2X-configuration foldover design")
	benchList := fs.String("benchmarks", "", "comma-separated subset of benchmarks (default: all 13)")
	estList := fs.String("estimators", "", "comma-separated estimators to sweep (default: "+strings.Join(sampling.Names(), ",")+")")
	// The spec every swept estimator shares: the defaults of an empty
	// spec text until -sample sets it.
	sample := &sampling.Flag{}
	if err := sample.Set(""); err != nil {
		return err
	}
	fs.Var(sample, "sample", "sampling `spec` every swept estimator shares, as key=value text (keys region, frac, warm, fwarm, seed, strata, set; -estimators sets est)")
	minSpearman := fs.Float64("min-spearman", experiment.DefaultMinSpearman, "rank-correlation gate; any estimator below it fails the run")
	jsonOut := fs.String("json-out", "", "write the JSON report to this file")
	mdOut := fs.String("md-out", "", "write the markdown report (CI step summary) to this file")
	if err := fs.Parse(args); err != nil {
		return obs.Usagef("%v", err)
	}
	if fs.NArg() > 0 {
		return obs.Usagef("unexpected arguments: %v", fs.Args())
	}
	ws, err := workload.Select(*benchList)
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
		Instructions: size.Instructions,
		Warmup:       size.Warmup,
		Foldover:     *foldover,
		Parallelism:  size.Par,
		Workloads:    ws,
		Estimators:   ests,
		MinSpearman:  *minSpearman,
		Spec:         *sample.Spec,
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

func writeFile(path string, fn func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer obs.FoldClose(&err, f)
	return fn(f)
}
