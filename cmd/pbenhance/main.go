// Command pbenhance reproduces Table 12 and the Section 4.3 analysis:
// it runs the X=44 foldover Plackett-Burman design once on the base
// processor and once with an enhancement (instruction precomputation
// by default, or dynamic value reuse), then compares the sum-of-ranks
// of every parameter before and after.
//
// Both suites are fault tolerant (panic recovery, and one aggregate
// error naming every failed configuration) and share one -checkpoint
// directory, holding each phase's campaign in a subdirectory named
// after its label (base, precompute-128, ...), so an interrupted
// comparison resumes without repeating either phase's completed
// configurations. pbworker -checkpoint DIR/<label> can join or finish
// either phase. Sampling is not offered: the experiment
// layer refuses it together with an enhancement.
//
// Observability: -metrics journals both phases' events to one JSONL
// file (each phase keyed by its own fingerprint), -progress prints
// live progress and a combined end-of-run summary, and -debug-addr
// serves expvar and pprof.
//
// Usage:
//
//	pbenhance [-mechanism precompute|valuereuse] [-table 128] [-n 100000]
//	          [-checkpoint campaigns/]
//	          [-metrics run.jsonl] [-progress] [-debug-addr localhost:6060]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/methodology"
	"pbsim/internal/obs"
	"pbsim/internal/paperdata"
	"pbsim/internal/pb"
	"pbsim/internal/report"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "pbenhance", run()))
}

func run() (err error) {
	mechanism := flag.String("mechanism", "precompute", "enhancement: 'precompute' (static table) or 'valuereuse' (dynamic)")
	tableSize := flag.Int("table", 128, "enhancement table entries (paper uses 128)")
	size := experiment.RegisterSizeFlags(flag.CommandLine)
	runFlags := experiment.RegisterRunFlags(flag.CommandLine)
	compare := flag.Bool("compare", false, "print the enhanced ordering next to the paper's Table 12 sums")
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine, "pbenhance")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer obs.FoldClose(&err, sess)

	// The flags name the enhancement by its label, which must be valid
	// before either suite simulates anything.
	enh, err := enhance.ParseSpec(fmt.Sprintf("%s-%d", *mechanism, *tableSize))
	if err != nil {
		return obs.Usagef("%v", err)
	}
	opts := experiment.Options{Foldover: true, Recorder: sess.Recorder()}
	size.Apply(&opts)
	runFlags.Apply(&opts)
	// phase runs one suite, its campaign in the label's subdirectory.
	phase := func(name string, enh enhance.Spec) (*pb.Suite, error) {
		o := opts
		o.Enhance = enh
		if o.Checkpoint != "" {
			o.Checkpoint = filepath.Join(o.Checkpoint, enh.String())
		}
		suite, err := experiment.RunSuiteCtx(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, runFlags.Resumable(err))
		}
		return suite, nil
	}
	before, err := phase("base experiment", enhance.Spec{})
	if err != nil {
		return err
	}
	after, err := phase("enhanced experiment", enh)
	if err != nil {
		return err
	}
	fmt.Println(report.RankTable(after,
		fmt.Sprintf("Table 12: Plackett and Burman Design Results With %s (%d-entry table)", *mechanism, *tableSize)))
	shifts, err := methodology.CompareEnhancement(before, after)
	if err != nil {
		return err
	}
	fmt.Println(report.ShiftTable(shifts, "Section 4.3: parameter significance before vs after the enhancement"))
	cut := 10
	big, err := methodology.BiggestShift(shifts, cut)
	if err == nil {
		fmt.Printf("Largest sum-of-ranks change among the top %d parameters: %s (%+d).\n",
			cut, big.Factor.Name, big.Shift)
		fmt.Println("(The paper finds the number of integer ALUs moves most under instruction precomputation.)")
	}
	if *compare {
		fmt.Println(report.RankTableWithPaper(after, paperdata.Table12,
			"Enhanced ordering vs the paper's published Table 12"))
	}
	return nil
}
