// Package experiment wires the Plackett-Burman methodology (package
// pb) to the processor simulator (package sim) and the synthetic
// benchmark suite (package workload): it is the harness behind
// Tables 9-12 of the paper.
package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pbsim/internal/enhance"
	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/sampling"
	"pbsim/internal/sim"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// DefaultInstructions is the per-run measured instruction budget used
// by the command-line tools when none is given. The paper ran each
// benchmark to completion (0.6-4 G instructions); the synthetic
// streams reach steady state within tens of thousands.
const DefaultInstructions = 100000

// DefaultWarmup is the per-run warmup budget: instructions simulated
// before measurement begins, so that cold-cache compulsory misses do
// not distort the factor effects.
const DefaultWarmup = 30000

// Options configures a suite experiment.
type Options struct {
	// Instructions measured per simulation run.
	Instructions int64
	// Warmup instructions simulated before measurement; negative
	// selects DefaultWarmup, zero disables warmup.
	Warmup int64
	// Foldover selects the 2X-run design (the paper's X=44 foldover
	// design with 88 configurations).
	Foldover bool
	// Parallelism bounds concurrently simulated configurations
	// (GOMAXPROCS when 0).
	Parallelism int
	// Enhance selects the enhancement every row simulates (Table 12);
	// the zero value is the base processor. Its string is the suite's
	// label in the fingerprint, the manifest's spec and row scopes.
	Enhance enhance.Spec
	// Sampling, when non-nil, replaces every row's full simulation with
	// a region-sampled one (see internal/sampling): the response becomes
	// the extrapolated cycle count. Mutually exclusive with Enhance
	// (value reuse trains on every instruction, so it assumes a full run).
	Sampling *sampling.Spec
	// Workloads restricts the benchmark suite; nil selects all 13.
	Workloads []workload.Workload

	// Timeout bounds each configuration's simulation attempt; zero
	// disables the per-row deadline.
	Timeout time.Duration
	// Retries is the number of extra attempts a failed configuration
	// gets before the benchmark is failed with an aggregate error.
	Retries int
	// Checkpoint, when non-empty, is a campaign directory (package
	// dist): the suite runs as Parallelism in-process workers that
	// commit every completed configuration to shard ledgers there, so
	// an interrupted suite rerun with the same options resumes where
	// it stopped and reproduces identical effects and ranks. A
	// directory holding a campaign under another fingerprint (changed
	// budget, enhancement, sampling, ...) is refused. pbworker
	// processes can join any campaign, Table 12's enhanced suites
	// included: the manifest's spec carries the enhancement.
	Checkpoint string
	// Sync fsyncs every checkpoint commit, so a committed
	// configuration survives a machine crash, not only a process
	// crash.
	Sync bool
	// Recorder receives the full observability event stream
	// (suite/run lifecycle, per-attempt latency, retries, worker
	// occupancy, and every completed configuration, scoped
	// "label/benchmark", with fromCheckpoint marking rows the
	// Checkpoint campaign had already committed when the run
	// started). The suite announcement carries the fingerprint a
	// Checkpoint campaign's shard ledgers carry, so the two join on
	// it. Nil means obs.Nop. Recording never changes scheduling or
	// results.
	Recorder obs.Recorder
}

// Response builds the pb.Response for one workload: each
// design row is translated to a processor configuration, a fresh CPU
// simulates the workload's deterministic stream, and the simulated
// execution time in cycles is the response value. Failures are
// returned as errors carrying the benchmark name (the runner adds the
// row), never raised as panics. An enhancement's table is fresh per
// row, built from one profile per workload (enhance.Spec.Shortcuts).
func Response(w workload.Workload, warmup, instructions int64, enh enhance.Spec) pb.Response {
	// All rows of one benchmark replay the identical instruction
	// stream through sim.RunRow: the first row to run records it as a
	// shared tape and every later row replays that, and each row's CPU
	// is released for the next row's to reuse its cache arrays.
	// Pooling lets concurrent workers recycle a generator's visit
	// table across rows; a Reset generator is indistinguishable from a
	// fresh one.
	var gens sync.Pool
	shortcut := enh.Shortcuts(w.Params, warmup+instructions)
	return func(ctx context.Context, levels []pb.Level) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cfg := sim.ConfigForLevels(levels)
		gen, _ := gens.Get().(*trace.Generator)
		if gen == nil {
			var err error
			if gen, err = w.NewGenerator(); err != nil {
				return 0, fmt.Errorf("workload %s: %w", w.Name, err)
			}
		} else {
			gen.Reset()
		}
		defer gens.Put(gen)
		sc, err := shortcut()
		if err != nil {
			return 0, fmt.Errorf("%s for %s: %w", enh, w.Name, err)
		}
		var stats [1]sim.Stats
		if err := sim.RunRow(cfg, gen, sc, 0, warmup, []int64{instructions}, stats[:]); err != nil {
			return 0, fmt.Errorf("run %s: %w", w.Name, err)
		}
		return float64(stats[0].Cycles), nil
	}
}

// SampledResponse is Response with region sampling: each design row
// runs the sampled simulation instead of the full one and reports the
// extrapolated cycle count. The spec must be normalized and valid; all
// rows of one workload share a memoized schedule, so the functional
// pre-passes are paid once, not per row.
func SampledResponse(w workload.Workload, warmup, instructions int64, spec sampling.Spec) pb.Response {
	var gens sync.Pool
	return func(ctx context.Context, levels []pb.Level) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cfg := sim.ConfigForLevels(levels)
		gen, _ := gens.Get().(*trace.Generator)
		if gen == nil {
			var err error
			if gen, err = w.NewGenerator(); err != nil {
				return 0, fmt.Errorf("workload %s: %w", w.Name, err)
			}
		}
		defer gens.Put(gen)
		res, err := sampling.Run(cfg, gen, warmup, instructions, spec)
		if err != nil {
			return 0, fmt.Errorf("sampled run %s: %w", w.Name, err)
		}
		return res.Cycles, nil
	}
}

// RunSuite executes the full PB experiment over the benchmark suite
// and returns per-benchmark ranks plus the sum-of-ranks ordering. It
// is the non-cancellable adapter over RunSuiteCtx.
func RunSuite(opts Options) (*pb.Suite, error) {
	return RunSuiteCtx(context.Background(), opts)
}

// RunSuiteCtx is the fault-tolerant suite entry point: the context
// cancels the whole experiment (all in-flight simulations drain
// before it returns), and the Options' Timeout/Retries fields
// configure the resilient runner. Without a Checkpoint the rows are
// evaluated in memory; with one, the suite runs over that campaign
// directory (see Options.Checkpoint) to the bit-identical result.
func RunSuiteCtx(ctx context.Context, opts Options) (*pb.Suite, error) {
	p, err := planCampaign(opts)
	if err != nil {
		return nil, err
	}
	p.opts.Recorder.SuiteStarted(Fingerprint(p.design, p.opts), len(p.ws), p.design.Runs())
	if p.opts.Checkpoint != "" {
		return p.runCampaign(ctx)
	}
	responses := make([]pb.Response, len(p.ws))
	for i, w := range p.ws {
		responses[i] = p.response(w)
	}
	return pb.RunSuite(ctx, p.design, p.factors, p.names(), responses, p.runnerConfig())
}

// Fingerprint identifies one experiment variant: the design geometry
// plus every option that changes the simulated cycle counts. A
// campaign directory is bound to one fingerprint, so restarting with
// different budgets (or with an enhancement toggled) can never splice
// stale responses into the effects. The label is the enhancement's
// canonical string, so it always names what the rows simulate.
func Fingerprint(design *pb.Design, opts Options) string {
	fp := fmt.Sprintf("%s|n=%d|warmup=%d|label=%s",
		design.Fingerprint(), opts.Instructions, opts.Warmup, opts.Enhance)
	if opts.Sampling != nil {
		// The canonical spec string, so equivalent specs collide and any
		// change in sampling parameters binds a different campaign.
		fp += "|sample=" + opts.Sampling.String()
	}
	return fp
}
