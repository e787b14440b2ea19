// Command pbcheck runs the project's static-analysis suite: ten
// analyzers enforcing the reproducibility invariants the PB
// methodology depends on (determinism, nopanic, floateq, errdiscard,
// ctxflow, hotalloc, leakygo, purity, lockflow, errflow), built purely
// on the standard library's go/parser + go/types. Analysis is
// interprocedural: a module-wide call graph propagates
// nondeterminism/panic/allocation/write-effect facts to fixpoint
// before any rule runs, so a sink laundered through helper calls and
// package boundaries is still found. The purity rule additionally
// consumes //pbcheck:pure markers, and lockflow/errflow are
// flow-sensitive: they solve dataflow problems over a per-function CFG
// instead of pattern-matching statements. Rule execution fans packages out over
// a bounded worker pool (-workers) with byte-identical output at any
// parallelism.
//
// Usage:
//
//	pbcheck [flags] [packages]
//
// Packages use go-tool patterns (./..., ./internal/stats, import
// paths); the default is ./... from the enclosing module root.
//
// Exit codes: 0 clean, 1 findings, 2 load/usage error — suitable for
// CI gates. Findings are waived per line with
// //pbcheck:ignore <rule> <reason>; the reason is mandatory, and a
// waiver that no longer suppresses anything is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"pbsim/internal/analysis"
	"pbsim/internal/analysis/rules"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("pbcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut    = fs.Bool("json", false, "emit the full diagnostic report (suppressed findings included) as JSON")
		mdOut      = fs.Bool("md", false, "emit a markdown findings/waiver summary (for CI step summaries)")
		list       = fs.Bool("list", false, "list the analyzers and the invariant each enforces, then exit")
		ruleList   = fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
		tests      = fs.Bool("tests", false, "also analyze _test.go files of each package")
		suppressed = fs.Bool("suppressed", false, "show suppressed findings (with their reasons) in plain output")
		dir        = fs.String("C", ".", "directory whose enclosing module to analyze")
		statsOut   = fs.Bool("stats", false, "append load and fact-build time and per-rule wall time and finding counts to the report (all output modes)")
		workers    = fs.Int("workers", analysis.DefaultWorkers(), "packages analyzed concurrently in the rule phase (1 = sequential; output is identical at any value)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	selected, unknown := rules.Select(*ruleList)
	if len(unknown) > 0 {
		fmt.Fprintf(stderr, "pbcheck: unknown rule(s) %v; run pbcheck -list\n", unknown)
		return 2
	}
	if *list {
		for _, a := range rules.Suite() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "pbcheck: %v\n", err)
		return 2
	}
	loader.IncludeTests = *tests
	dirs, err := analysis.ExpandPatterns(loader.Root, loader.Module, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "pbcheck: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(dirs)
	if err != nil {
		fmt.Fprintf(stderr, "pbcheck: %v\n", err)
		return 2
	}
	// The loader's universe includes every module dependency pulled in
	// while type-checking the selected packages; the fact engine needs
	// those bodies even though they are not analyzed for reporting.
	diags, stats, err := analysis.RunUniverseTimedWorkers(pkgs, loader.Universe(), selected, *workers)
	if err != nil {
		fmt.Fprintf(stderr, "pbcheck: %v\n", err)
		return 2
	}
	if *statsOut {
		stats.Load = loader.Stats()
	} else {
		stats = nil
	}

	switch {
	case *jsonOut:
		if err := analysis.WriteJSON(stdout, loader.Root, diags, stats); err != nil {
			fmt.Fprintf(stderr, "pbcheck: %v\n", err)
			return 2
		}
	case *mdOut:
		analysis.WriteMarkdown(stdout, loader.Root, diags)
		analysis.WriteStatsMarkdown(stdout, stats)
	default:
		analysis.WritePlain(stdout, loader.Root, diags, *suppressed)
		analysis.WriteStats(stdout, stats)
	}
	if analysis.Active(diags) > 0 {
		return 1
	}
	return 0
}
