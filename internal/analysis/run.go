package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// A RuleStat is one analyzer's cost/yield summary for a run: total
// wall time across all analyzed packages and how many diagnostics it
// produced (suppressed ones included — the cost of a
// rule is the cost of everything it finds, waived or not).
type RuleStat struct {
	Rule     string
	Time     time.Duration
	Findings int
}

// RunStats is the -stats payload: where a pbcheck run spent its time.
// Load is the loader's phase 0, which the driver that ran the Load
// copies in (RunUniverseTimedWorkers never sees the loader). FactBuild covers
// phase 1 (call graph + fixpoint over the universe);
// Rules lists every analyzer in suite order. RuleWall is the real
// elapsed time of phase 2 under Workers concurrent package workers,
// RuleSeq the sum of every per-package analyzer slice — what the same
// run would have cost sequentially. RuleSeq/RuleWall is the measured
// speedup.
type RunStats struct {
	Load      LoadStats
	FactBuild time.Duration
	// PointsTo is always zero: the engine no longer runs a points-to
	// solve. The field stays because the repository benchmark still
	// reports it as a metric.
	PointsTo time.Duration
	Rules    []RuleStat
	RuleWall time.Duration
	RuleSeq  time.Duration
	Workers  int
}

// DefaultWorkers is the phase-2 parallelism the drivers use when the
// caller does not choose: one worker per CPU, capped so a large
// machine does not oversubscribe the allocator on tiny runs.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// pkgResult is one package's phase-2 output: its diagnostics (in
// emission order, suppressions applied, stale waivers flagged) and the
// per-analyzer wall time and finding count, indexed in suite order.
type pkgResult struct {
	diags     []Diagnostic
	ruleTime  []time.Duration
	ruleCount []int
}

// analyzePackage runs the full analyzer suite over one package. It
// touches only its own pkgResult plus read-only shared state (the
// fact index is frozen after phase 1), so any number of packages can
// run concurrently.
func analyzePackage(pkg *Package, facts *FactIndex, analyzers []*Analyzer, known map[string]bool) pkgResult {
	res := pkgResult{
		ruleTime:  make([]time.Duration, len(analyzers)),
		ruleCount: make([]int, len(analyzers)),
	}
	sups, supDiags := scanSuppressions(pkg, known)
	res.diags = append(res.diags, supDiags...)
	for i, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Facts: facts, sink: &res.diags}
		before := len(res.diags)
		t0 := time.Now()
		a.Run(pass)
		res.ruleTime[i] = time.Since(t0)
		res.ruleCount[i] = len(res.diags) - before
	}
	fired := applySuppressions(res.diags, sups)
	res.diags = append(res.diags, staleWaivers(facts, sups, fired, known)...)
	return res
}

// RunUniverseTimedWorkers is the two-phase driver. Phase 1 builds the
// interprocedural fact index over the union of pkgs and universe
// (universe normally comes from Loader.Universe() and includes every
// module dependency the loader pulled in — its bodies feed fact
// propagation but it is not analyzed for reporting). Phase 2 runs
// every analyzer over every package in pkgs with fact access, applies
// the packages' //pbcheck:ignore suppressions, and returns all
// diagnostics (suppressed ones included, marked) in deterministic
// file/line/column order regardless of package-load order, plus
// per-phase timing (DefaultWorkers is the usual worker count).
//
// Phase 2 fans packages out over a bounded pool of `workers`
// goroutines. Each package's analysis writes only its own result
// slot, results are merged in input-package order, and the final sort
// is position based — the diagnostics are byte-identical at every
// worker count, only the wall time moves. Timing observes the run; it
// never alters it.
//
// Packages with type errors are rejected: findings over code that
// does not compile are unreliable, and the repo's tier-1 gate
// guarantees compilable input anyway.
func RunUniverseTimedWorkers(pkgs, universe []*Package, analyzers []*Analyzer, workers int) ([]Diagnostic, *RunStats, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		if a.Name == IgnoreRule {
			return nil, nil, fmt.Errorf("analysis: rule name %q is reserved", IgnoreRule)
		}
		known[a.Name] = true
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, nil, fmt.Errorf("analysis: %s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
		}
	}

	// Phase 1: call graph + fact fixpoint over the whole universe.
	// Waiver rules are always in the fact engine's vocabulary even
	// when the corresponding analyzer was deselected, so a reasoned
	// waiver keeps cutting fact generation under -rules subsets.
	factKnown := map[string]bool{
		RuleDeterminism: true, RuleNoPanic: true, RuleHotAlloc: true, RulePurity: true,
	}
	for name := range known {
		factKnown[name] = true
	}
	seen := make(map[string]bool, len(pkgs)+len(universe))
	var all []*Package
	for _, pkg := range append(append([]*Package(nil), pkgs...), universe...) {
		if pkg == nil || seen[pkg.Path] {
			continue
		}
		seen[pkg.Path] = true
		all = append(all, pkg)
	}
	factStart := time.Now()
	facts := BuildFacts(all, factKnown)
	stats := &RunStats{FactBuild: time.Since(factStart)}
	for _, pkg := range pkgs {
		facts.analyzed[pkg.Path] = true
	}

	// Phase 2: analyzers with fact access, one bounded worker pool
	// over the packages. The index channel deals each package to
	// exactly one worker; slot i of results belongs to that worker
	// alone until the wg.Wait join publishes everything.
	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) && len(pkgs) > 0 {
		workers = len(pkgs)
	}
	stats.Workers = workers
	ruleStart := time.Now()
	results := make([]pkgResult, len(pkgs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = analyzePackage(pkgs[i], facts, analyzers, known)
			}
		}()
	}
	for i := range pkgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	stats.RuleWall = time.Since(ruleStart)

	// Merge in input-package order; per-rule times sum across packages
	// into the sequential-cost estimate.
	ruleTime := make([]time.Duration, len(analyzers))
	ruleCount := make([]int, len(analyzers))
	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r.diags...)
		for i := range analyzers {
			ruleTime[i] += r.ruleTime[i]
			ruleCount[i] += r.ruleCount[i]
			stats.RuleSeq += r.ruleTime[i]
		}
	}
	for i, a := range analyzers {
		stats.Rules = append(stats.Rules, RuleStat{
			Rule:     a.Name,
			Time:     ruleTime[i],
			Findings: ruleCount[i],
		})
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].sortKey() < diags[j].sortKey() })
	return diags, stats, nil
}

// Active counts the diagnostics no waiver suppresses — the number
// that should drive a non-zero exit code.
func Active(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if !d.Suppressed {
			n++
		}
	}
	return n
}
