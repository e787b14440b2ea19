// Command tablegen regenerates every table of the paper into an
// output directory: the static tables (1-8) directly and the
// experimental tables (9-12) by running the full Plackett-Burman
// experiments on the simulator. The experimental runs are fault
// tolerant: -checkpoint behaves as in pbrank, and Ctrl-C
// leaves a resumable checkpoint instead of lost work. Each
// experimental suite keeps its campaign in its own subdirectory of the
// -checkpoint directory, named after its label (base,
// precompute-128), which pbworker -checkpoint can join or finish.
//
// Observability: -metrics journals every experimental suite's events
// to one JSONL file, -progress prints live progress and a combined
// end-of-run summary, -debug-addr serves expvar and pprof.
//
// Usage:
//
//	tablegen [-out out] [-table 0] [-n 100000] [-warmup 30000] [-par 0]
//	         [-checkpoint campaigns/]
//	         [-metrics run.jsonl] [-progress] [-debug-addr localhost:6060]
//
// With -table 0 (the default) all tables are generated. The run-size
// flags size every experimental suite (Tables 9-12).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"pbsim/internal/cluster"
	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/methodology"
	"pbsim/internal/obs"
	"pbsim/internal/paperdata"
	"pbsim/internal/pb"
	"pbsim/internal/report"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "tablegen", run()))
}

func run() (err error) {
	out := flag.String("out", "out", "output directory")
	table := flag.Int("table", 0, "table to generate (1..12, 0 = all)")
	size := experiment.RegisterSizeFlags(flag.CommandLine)
	runFlags := experiment.RegisterRunFlags(flag.CommandLine)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine, "tablegen")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer obs.FoldClose(&err, sess)

	g := &generator{
		ctx: ctx, out: *out, size: size,
		run: runFlags, recorder: sess.Recorder(),
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	steps := map[int]func() error{
		1: g.table1, 2: g.table2, 3: g.table3, 4: g.table4,
		5: g.table5, 6: g.tables678, 7: g.tables678, 8: g.tables678,
		9: g.table9, 10: g.tables1011, 11: g.tables1011, 12: g.table12,
	}
	if *table != 0 {
		step, ok := steps[*table]
		if !ok {
			return obs.Usagef("unknown table %d", *table)
		}
		return runFlags.Resumable(step())
	}
	for _, i := range []int{1, 2, 3, 4, 5, 6, 9, 10, 12} {
		if err := steps[i](); err != nil {
			return runFlags.Resumable(err)
		}
	}
	return nil
}

type generator struct {
	ctx      context.Context
	out      string
	size     *experiment.SizeFlags
	run      *experiment.RunFlags
	recorder obs.Recorder
	// cached experiment results shared between tables
	base *pb.Suite
}

func (g *generator) write(name, content string) error {
	path := filepath.Join(g.out, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func (g *generator) table1() error {
	return g.write("table01_design_cost.txt", report.DesignCost(43))
}

func (g *generator) table2() error {
	d, err := pb.NewWithSize(8, false)
	if err != nil {
		return err
	}
	return g.write("table02_design_x8.txt", report.DesignMatrix(d))
}

func (g *generator) table3() error {
	d, err := pb.NewWithSize(8, true)
	if err != nil {
		return err
	}
	return g.write("table03_design_x8_foldover.txt", report.DesignMatrix(d))
}

func (g *generator) table4() error {
	out, err := report.WorkedExample()
	if err != nil {
		return err
	}
	return g.write("table04_worked_example.txt", out)
}

func (g *generator) table5() error {
	return g.write("table05_benchmarks.txt", report.WorkloadRoster())
}

func (g *generator) tables678() error {
	return g.write("table06_07_08_parameters.txt", report.ParameterValues())
}

func (g *generator) options(enh enhance.Spec) experiment.Options {
	opts := experiment.Options{Foldover: true, Enhance: enh, Recorder: g.recorder}
	g.size.Apply(&opts)
	g.run.Apply(&opts)
	if opts.Checkpoint != "" {
		opts.Checkpoint = filepath.Join(opts.Checkpoint, enh.String())
	}
	return opts
}

func (g *generator) baseSuite() (*pb.Suite, error) {
	if g.base != nil {
		return g.base, nil
	}
	suite, err := experiment.RunSuiteCtx(g.ctx, g.options(enhance.Spec{}))
	if err != nil {
		return nil, err
	}
	g.base = suite
	return suite, nil
}

func (g *generator) table9() error {
	suite, err := g.baseSuite()
	if err != nil {
		return err
	}
	body := report.RankTable(suite, "Table 9: Plackett and Burman Design Results for All Processor Parameters") +
		"\n" + report.RankTableWithPaper(suite, paperdata.Table9, "Measured ordering vs the paper's Table 9")
	return g.write("table09_pb_ranks.txt", body)
}

func (g *generator) tables1011() error {
	suite, err := g.baseSuite()
	if err != nil {
		return err
	}
	m, err := cluster.DistanceMatrix(suite.Benchmarks, suite.RankRows)
	if err != nil {
		return err
	}
	if err := g.write("table10_distances.txt",
		report.DistanceTable(m, "Table 10: Distance Between Benchmark Vectors, Based on Parameter Ranks")); err != nil {
		return err
	}
	// The paper hand-picks sqrt(4000) for its own rank scale; for the
	// measured ranks the equivalent data-driven choice is the same
	// percentile of pairwise distances the paper's threshold selects
	// on its data (~15%).
	threshold := cluster.PercentileThreshold(m, 0.15)
	groups := cluster.GroupNames(m, cluster.ThresholdGroups(m, threshold))
	return g.write("table11_groups.txt", report.GroupTable(groups, threshold))
}

func (g *generator) table12() error {
	before, err := g.baseSuite()
	if err != nil {
		return err
	}
	after, err := experiment.RunSuiteCtx(g.ctx, g.options(enhance.Spec{Mechanism: enhance.MechPrecompute, TableSize: 128}))
	if err != nil {
		return err
	}
	shifts, err := methodology.CompareEnhancement(before, after)
	if err != nil {
		return err
	}
	body := report.RankTable(after, "Table 12: PB Design Results With Instruction Precomputation (128-entry table)") +
		"\n" + report.ShiftTable(shifts, "Parameter significance before vs after instruction precomputation") +
		"\n" + report.RankTableWithPaper(after, paperdata.Table12, "Enhanced ordering vs the paper's Table 12")
	return g.write("table12_enhanced_ranks.txt", body)
}
