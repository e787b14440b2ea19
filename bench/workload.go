package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"pbsim/internal/analysis"
	"pbsim/internal/analysis/rules"
	"pbsim/internal/experiment"
	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/runner/dist"
	"pbsim/internal/sampling"
	"pbsim/internal/sim"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// workers is the closed-loop concurrency of every workload: two row
// workers (or two dist workers, or two pbcheck rule workers) on a
// child process limited to GOMAXPROCS=2.
const workers = 2

// kind selects the public entry point a workload drives.
type kind int

const (
	kindSuite kind = iota // experiment.RunSuiteCtx
	kindDist              // dist.Create, two dist.RunWorker, Merge, experiment.SuiteFromMerge
	kindLint              // pbcheck: Loader.Load, analysis.RunUniverseTimedWorkers
)

// benchWorkload is one named workload: a fixed batch of work that one
// measured rep runs to completion.
type benchWorkload struct {
	Name         string
	Kind         kind
	Benchmarks   int // leading benchmarks of the suite; 0 selects all 13
	Instructions int64
	Warmup       int64
	Sampling     *sampling.Spec
	Patterns     []string // lint-sweep package patterns
}

// workloadsFor returns the workload table. The campaigns keep the
// paper's Table 9 shape (13 benchmarks x the 88-row X=44 foldover
// design, 1144 simulations); their windows are scaled so that one rep
// takes a few seconds on a 2-core machine. short shrinks every
// workload to a sub-second smoke for tests: 2 benchmarks at n=500 (the
// sampled one at n=2048, so that it still samples 2 of 8 regions), and
// a lint sweep of one package.
func workloadsFor(short bool) []benchWorkload {
	sampled := &sampling.Spec{
		Estimator: sampling.EstimatorStratified, RegionSize: 1000, Fraction: 0.08,
		RegionWarmup: -1, FuncWarmup: 8000, Seed: 1,
	}
	ws := []benchWorkload{
		{Name: "table9-full", Kind: kindSuite, Instructions: 6000, Warmup: 3000},
		{Name: "table9-sampled", Kind: kindSuite, Instructions: 25000, Warmup: 8000, Sampling: sampled},
		{Name: "table9-dist", Kind: kindDist, Instructions: 2000, Warmup: 1000},
		{Name: "lint-sweep", Kind: kindLint, Patterns: []string{"./..."}},
	}
	if short {
		for i := range ws {
			ws[i].Benchmarks, ws[i].Instructions, ws[i].Warmup = 2, 500, 250
		}
		ws[1].Instructions, ws[1].Warmup = 2048, 512
		sampled.RegionSize, sampled.Fraction, sampled.FuncWarmup = 256, 0.25, 512
		ws[3].Patterns = []string{"./internal/stats"}
	}
	return ws
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadsFor(false) {
		names = append(names, w.Name)
	}
	return names
}

func findWorkload(name string, short bool) (benchWorkload, error) {
	for _, w := range workloadsFor(short) {
		if w.Name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// config identifies the responses a campaign workload produces at seed
// 0; golden data recorded under another config is never compared.
func (w benchWorkload) config() string {
	n := w.Benchmarks
	if n == 0 {
		n = len(workload.All())
	}
	s := fmt.Sprintf("n=%d warmup=%d benchmarks=%d foldover", w.Instructions, w.Warmup, n)
	if w.Sampling != nil {
		s += " sample=" + w.Sampling.String()
	}
	return s
}

// truthWorkload is the full-simulation campaign over the same window
// as a sampled workload: the ground truth its estimates are scored on.
func (w benchWorkload) truthWorkload() benchWorkload {
	w.Name, w.Kind, w.Sampling = w.Name+"-truth", kindSuite, nil
	return w
}

// prepared is a workload after set-up: the inputs its measured work
// runs on, generated from the seed.
type prepared struct {
	w      benchWorkload
	opts   experiment.Options
	design *pb.Design
	gens   []*trace.Generator // fresh, one per benchmark, for the probes

	loader *analysis.Loader
	dirs   []string

	campaignDir string
}

// cleanup removes what set-up created outside the process.
func (p *prepared) cleanup() error {
	if p.campaignDir == "" {
		return nil
	}
	return os.RemoveAll(p.campaignDir)
}

// setup builds a workload's inputs. For a campaign that is the 13
// seeded generators (compiling each benchmark's static program, which
// the trace package then memoizes), the design and, for a sampled
// campaign, every benchmark's region schedule (sampling.CostOf, also
// memoized). For lint-sweep it is the loader and the package list.
func setup(w benchWorkload, seed uint64, repo string, tr *tracer) (*prepared, error) {
	root := tr.begin("setup", -1, "")
	defer tr.end(root)
	p := &prepared{w: w}
	if w.Kind == kindLint {
		s := tr.begin("analysis.NewLoader", root, "")
		loader, err := analysis.NewLoader(repo)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("analysis.ExpandPatterns", root, "")
		p.dirs, err = analysis.ExpandPatterns(loader.Root, loader.Module, w.Patterns)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		p.loader = loader
		return p, nil
	}

	ws := workload.All()
	if w.Benchmarks > 0 {
		ws = ws[:w.Benchmarks]
	}
	for i := range ws {
		ws[i].Params.Seed = mixSeed(seed, ws[i].Params.Seed)
		s := tr.begin("trace.NewGenerator", root, ws[i].Name)
		gen, err := ws[i].NewGenerator()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		p.gens = append(p.gens, gen)
		if w.Sampling != nil {
			s := tr.begin("sampling.CostOf", root, ws[i].Name)
			_, err := sampling.CostOf(ws[i].Params, w.Warmup, w.Instructions, *w.Sampling)
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
	}
	s := tr.begin("pb.New", root, "")
	design, err := pb.New(len(sim.Factors()), true)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	p.design = design
	p.opts = experiment.Options{
		Instructions: w.Instructions,
		Warmup:       w.Warmup,
		Foldover:     true,
		Parallelism:  workers,
		Workloads:    ws,
		Sampling:     w.Sampling,
	}
	if w.Kind == kindDist {
		// Under bench/run.sh, TMPDIR points into the checkout.
		if p.campaignDir, err = os.MkdirTemp("", "pbsim-bench-campaign-"); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// outcome is what one rep's work produced.
type outcome struct {
	suite *pb.Suite // campaign workloads

	diags    []analysis.Diagnostic // lint-sweep
	stats    *analysis.RunStats
	packages int
	universe int
}

// responses returns the campaign's response vectors in benchmark order.
func (o *outcome) responses() [][]float64 {
	out := make([][]float64, len(o.suite.Results))
	for i, r := range o.suite.Results {
		out[i] = r.Responses
	}
	return out
}

// digest is the rep's correctness fingerprint: the campaign responses
// (bit-exact), or the lint finding set without positions, so reps
// compare equal however the sweep's input lines shift.
func (o *outcome) digest() string {
	if o.suite != nil {
		return digestResponses(o.responses())
	}
	var b strings.Builder
	for _, d := range o.diags {
		fmt.Fprintf(&b, "%s|%s|%s|%s|%t\n", d.Rule, d.Package, d.Func, d.Message, d.Suppressed)
	}
	return fnvDigest(b.String())
}

// run is the measured work of one rep. rec, when non-nil, observes the
// campaign; parent is the span the work's spans hang under.
func run(ctx context.Context, p *prepared, tr *tracer, rec *recorder, parent int) (*outcome, error) {
	switch p.w.Kind {
	case kindSuite:
		opts := p.opts
		if rec != nil {
			opts.Recorder = rec
		}
		s := tr.begin("experiment.RunSuiteCtx", parent, "")
		suite, err := experiment.RunSuiteCtx(ctx, opts)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		return &outcome{suite: suite}, nil
	case kindDist:
		suite, err := runDist(ctx, p, tr, rec, parent)
		if err != nil {
			return nil, err
		}
		return &outcome{suite: suite}, nil
	default:
		s := tr.begin("analysis.Load", parent, "")
		pkgs, err := p.loader.Load(p.dirs)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		universe := p.loader.Universe()
		s = tr.begin("analysis.RunUniverseTimedWorkers", parent, "")
		diags, stats, err := analysis.RunUniverseTimedWorkers(pkgs, universe, rules.All(), workers)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		return &outcome{diags: diags, stats: stats, packages: len(pkgs), universe: len(universe)}, nil
	}
}

// distPoll replaces the workers' default 2.5 s poll sleep. With the
// default, whether the campaign tail pays one sleep, two or none
// depends on how the last units interleave, so wall time jumps between
// ~3.7 s and ~6.5 s from rep to rep; 50 ms keeps the tail's cost
// (still reported as dist.tail_idle_s) small and steady.
const distPoll = 50 * time.Millisecond

// runDist runs the campaign the way pbrank -workers 2 does: a fresh
// campaign directory, two in-process workers with the default lease
// timing except the poll sleep, no fsync, then the merge and the suite
// assembled from it.
func runDist(ctx context.Context, p *prepared, tr *tracer, rec *recorder, parent int) (*pb.Suite, error) {
	s := tr.begin("dist.Create", parent, "")
	man, err := experiment.CampaignManifest(p.opts)
	if err != nil {
		tr.end(s)
		return nil, err
	}
	c, err := dist.Create(p.campaignDir, man)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	task, err := experiment.CampaignTask(p.opts, c.Manifest())
	if err != nil {
		return nil, err
	}
	var observe obs.Recorder
	if rec != nil {
		observe = rec
	}
	dir := p.campaignDir
	errc := make(chan error, workers)
	// The go statement sits outside the loop so that pbcheck's racecheck,
	// whose points-to solve merges the goroutines of one in-loop spawn
	// site, does not conflate the two workers' state.
	start := func(id string) {
		ws := tr.begin("dist.RunWorker", parent, "")
		if rec != nil {
			rec.setWorkerSpan(id, ws)
		}
		go func(ctx context.Context, errc chan<- error) {
			_, err := dist.RunWorker(ctx, dir, task, dist.Config{ID: id, Poll: distPoll, Recorder: observe})
			tr.end(ws)
			errc <- err
		}(ctx, errc)
	}
	for i := 0; i < workers; i++ {
		start(fmt.Sprintf("w%d", i))
	}
	var errs []error
	for i := 0; i < workers; i++ {
		errs = append(errs, <-errc)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	s = tr.begin("dist.Merge", parent, "")
	res, err := c.Merge(nil)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if !res.Complete() {
		return nil, fmt.Errorf("dist campaign incomplete: %d units missing", len(res.Missing))
	}
	s = tr.begin("experiment.SuiteFromMerge", parent, "")
	suite, err := experiment.SuiteFromMerge(p.opts, res)
	tr.end(s)
	return suite, err
}
