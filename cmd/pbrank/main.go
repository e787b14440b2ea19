// Command pbrank reproduces Table 9 of the paper: it runs the X=44
// foldover Plackett-Burman design (88 processor configurations) over
// the 13-benchmark synthetic suite, ranks every parameter per
// benchmark by the magnitude of its effect on execution time, and
// sorts the parameters by their sum of ranks.
//
// The suite is fault tolerant: every configuration is simulated once,
// a failed or panicking one fails the run naming its row, and
// -checkpoint runs the suite over a campaign directory so an
// interrupted run (Ctrl-C included) resumes exactly where it stopped.
//
// Observability: -metrics journals run events to a JSONL file keyed
// by the experiment fingerprint, -progress prints live progress lines
// and an end-of-run summary (rows/s, latency quantiles, failure and
// panic totals, resumed vs simulated rows), and -debug-addr serves
// expvar and pprof while the campaign runs.
//
// Usage:
//
//	pbrank [-n 100000] [-warmup 30000] [-benchmarks gzip,mcf,...]
//	       [-par 0] [-checkpoint campaign/] [-shard-sync]
//	       [-sample est=stratified,frac=0.2,strata=6]
//	       [-metrics run.jsonl] [-progress] [-debug-addr localhost:6060]
//	       [-compare] [-gap]
//
// Sampled mode (-sample SPEC) replaces each full measurement with a
// region-sampled estimate (internal/sampling): every configuration
// detail-simulates only a seeded, deterministic subset of the measured
// window, cutting detailed instructions by roughly 1/frac while
// preserving the Table 9 ordering (the pbfrontier tool gates exactly
// that). SPEC is an estimator name (uniform, stratified, rankedset) or
// the spec's key=value text (est, region, frac, warm, fwarm, seed,
// strata, set); a key it leaves out takes its default. The canonical
// spec is part of the experiment fingerprint, so a campaign never
// mixes sampled and full rows and pbworker processes reconstruct the
// identical schedule.
//
// Checkpointed mode (-checkpoint DIR) runs the suite through the
// crash-safe execution layer: -par in-process workers claim
// configuration × benchmark units of the campaign in DIR via lease
// files and commit to per-worker shard ledgers (-shard-sync fsyncs
// every commit), so a killed run loses nothing committed, and
// rerunning with the same flags resumes; a DIR holding a campaign
// with other flags is refused. Point pbworker processes (other
// machines included, over a shared filesystem) at DIR to scale out;
// the merged Table 9 is bit-identical to an in-memory run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pbsim/internal/experiment"
	"pbsim/internal/methodology"
	"pbsim/internal/obs"
	"pbsim/internal/paperdata"
	"pbsim/internal/pb"
	"pbsim/internal/report"
	"pbsim/internal/sampling"
	"pbsim/internal/workload"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "pbrank", run()))
}

func run() (err error) {
	size := experiment.RegisterSizeFlags(flag.CommandLine)
	benchList := flag.String("benchmarks", "", "comma-separated subset of benchmarks (default: all 13)")
	compare := flag.Bool("compare", false, "print the measured ordering next to the paper's Table 9 sums")
	gap := flag.Bool("gap", false, "report the significance gap (the paper's 'first ten parameters' cut)")
	pov := flag.Bool("pov", false, "print percent-of-variation dominance per benchmark (exposes what ranks hide)")
	stability := flag.Bool("stability", false, "print leave-one-benchmark-out stability of the ordering")
	runFlags := experiment.RegisterRunFlags(flag.CommandLine)
	verbose := flag.Bool("v", false, "log checkpoint restores")
	csvRanks := flag.String("csv", "", "also write the rank matrix to this CSV file")
	csvRaw := flag.String("csv-raw", "", "also write raw per-configuration cycle counts to this CSV file")
	shardSync := flag.Bool("shard-sync", false, "fsync every -checkpoint commit (survives machine death, not just process death)")
	sample := sampling.RegisterFlag(flag.CommandLine)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine, "pbrank")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer obs.FoldClose(&err, sess)

	ws, err := workload.Select(*benchList)
	if err != nil {
		return obs.Usagef("%v", err)
	}
	opts := experiment.Options{
		Foldover:  true,
		Workloads: ws,
		Sync:      *shardSync,
		Recorder:  sess.Recorder(),
		Sampling:  sample.Spec,
	}
	size.Apply(&opts)
	runFlags.Apply(&opts)
	if *verbose {
		opts.Recorder = obs.Multi(opts.Recorder, verboseLog{})
	}
	suite, err := experiment.RunSuiteCtx(ctx, opts)
	if err != nil {
		return runFlags.Resumable(err)
	}
	title := fmt.Sprintf("Table 9: Plackett and Burman Design Results (X=%d foldover, %d configurations, %d instructions/run)",
		suite.Design.X, suite.Design.Runs(), size.Instructions)
	if sample.Spec != nil {
		title += fmt.Sprintf("\nsampled responses: %s", sample.Spec)
	}
	fmt.Println(report.RankTable(suite, title))
	if *compare {
		fmt.Println(report.RankTableWithPaper(suite, paperdata.Table9,
			"Measured ordering vs the paper's published Table 9"))
	}
	if *gap {
		cut := pb.SignificanceGap(suite.Sums)
		fmt.Printf("Significance gap after the top %d parameters (paper: 10).\n", cut)
	}
	if *pov {
		out, err := report.DominanceTable(suite, 5)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if *csvRanks != "" {
		if err := writeCSV(*csvRanks, suite, experiment.WriteRanksCSV); err != nil {
			return err
		}
	}
	if *csvRaw != "" {
		if err := writeCSV(*csvRaw, suite, experiment.WriteResponsesCSV); err != nil {
			return err
		}
	}
	if *stability {
		rep, err := methodology.Jackknife(suite)
		if err != nil {
			return err
		}
		fmt.Println("Leave-one-benchmark-out stability (position envelope per factor):")
		for _, fs := range rep.ByFullPosition() {
			fmt.Printf("  %2d. %-35s positions %d..%d (spread %d)\n",
				fs.FullPosition, fs.Factor.Name, fs.MinPosition, fs.MaxPosition, fs.Spread)
		}
	}
	return nil
}

// writeCSV writes one CSV view of the suite to a file.
func writeCSV(path string, suite *pb.Suite, fn func(w io.Writer, s *pb.Suite) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	//pbcheck:ignore errdiscard error-path cleanup only; the success path checks the Close below
	defer f.Close()
	if err := fn(f, suite); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return f.Close()
}

// verboseLog prints -v's checkpoint-restore lines.
type verboseLog struct{ obs.Nop }

func (verboseLog) RowFinished(scope string, row int, _ float64, _ time.Duration, _ int, fromCheckpoint bool) {
	if fromCheckpoint {
		fmt.Fprintf(os.Stderr, "pbrank: %s row %d restored from checkpoint\n", scope, row)
	}
}
