// Command pbclassify reproduces Tables 10 and 11 of the paper:
// benchmark classification by the Euclidean distance between
// parameter-rank vectors. It can classify either the paper's published
// Table 9 ranks (the default, exactly reproducing the published
// Tables 10-11) or freshly measured ranks from the simulator.
//
// The run-size flags (-n, -warmup, -par) and -checkpoint size and
// control the suite that -source sim runs, as in pbrank.
//
// Observability (meaningful with -source sim, which runs the full
// suite): -metrics journals run events to JSONL, -progress prints
// live progress and an end-of-run summary, -debug-addr serves expvar
// and pprof.
//
// Usage:
//
//	pbclassify [-source paper|sim] [-threshold 63.25] [-dendrogram]
//	           [-n 100000] [-warmup 30000] [-par 0] [-checkpoint campaign/]
//	           [-metrics run.jsonl] [-progress] [-debug-addr localhost:6060]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"pbsim/internal/cluster"
	"pbsim/internal/experiment"
	"pbsim/internal/obs"
	"pbsim/internal/paperdata"
	"pbsim/internal/report"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "pbclassify", run()))
}

func run() (err error) {
	source := flag.String("source", "paper", "rank source: 'paper' (published Table 9) or 'sim' (fresh measurement)")
	threshold := flag.Float64("threshold", paperdata.Threshold, "similarity threshold (paper uses sqrt(4000) ~ 63.2); 0 selects the 15th percentile of measured distances")
	dendro := flag.Bool("dendrogram", false, "also print a single-linkage clustering dendrogram")
	size := experiment.RegisterSizeFlags(flag.CommandLine)
	runFlags := experiment.RegisterRunFlags(flag.CommandLine)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine, "pbclassify")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer obs.FoldClose(&err, sess)

	opts := experiment.Options{Foldover: true, Recorder: sess.Recorder()}
	size.Apply(&opts)
	runFlags.Apply(&opts)
	m, err := buildMatrix(ctx, *source, opts)
	if err != nil {
		return runFlags.Resumable(err)
	}
	fmt.Println(report.DistanceTable(m, "Table 10: Distance Between Benchmark Vectors, Based on Parameter Ranks"))
	cut := *threshold
	if cut <= 0 {
		cut = cluster.PercentileThreshold(m, 0.15)
	}
	groups := cluster.GroupNames(m, cluster.ThresholdGroups(m, cut))
	fmt.Println(report.GroupTable(groups, cut))
	if *dendro {
		fmt.Println(cluster.Agglomerate(m).ASCII())
	}
	return nil
}

// buildMatrix computes the benchmark distance matrix from the chosen
// rank source; opts configures the suite when the source is "sim".
func buildMatrix(ctx context.Context, source string, opts experiment.Options) (*cluster.Matrix, error) {
	switch source {
	case "paper":
		return cluster.DistanceMatrix(paperdata.Benchmarks, paperdata.RankVectors(paperdata.Table9))
	case "sim":
		suite, err := experiment.RunSuiteCtx(ctx, opts)
		if err != nil {
			return nil, err
		}
		return cluster.DistanceMatrix(suite.Benchmarks, suite.RankRows)
	default:
		return nil, obs.Usagef("unknown source %q", source)
	}
}
