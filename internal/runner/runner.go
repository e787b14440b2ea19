// Package runner is the fault-tolerant evaluation engine behind every
// Plackett-Burman experiment in this repository. A PB suite at paper
// scale is a large fan-out — the X=44 foldover design is 88
// configurations × 13 benchmarks ≈ 1,144 independent simulations. The
// runner evaluates the rows with a bounded worker pool under context
// cancellation, and attempts every row exactly once: a row is a pure
// function of its configuration and workload, so a second attempt
// would fail the same way, and one that succeeded would hide exactly
// the nondeterminism the bit-identical tables exist to catch. A
// panicking row is recovered into a per-row error, never a dead
// process. Durable resume is not the runner's business: a checkpointed
// suite runs as a campaign directory of package dist, whose workers
// evaluate each unit through EvaluateRow.
//
// The degradation policy is strict: a failed row fails the whole
// evaluation with an aggregate *RunError naming every failed row — the
// runner never substitutes a silent NaN that would corrupt downstream
// effects and ranks.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pbsim/internal/obs"
)

// Task computes the response value of one row. The context carries the
// caller's cancellation only; the runner adds no deadline of its own.
// Tasks must be safe for concurrent use.
type Task func(ctx context.Context, row int) (float64, error)

// Config tunes one Evaluate call. The zero value is a plain parallel
// evaluation on GOMAXPROCS workers.
type Config struct {
	// Parallelism bounds the number of concurrently evaluated rows
	// (GOMAXPROCS when zero or negative).
	Parallelism int
	// Scope names this evaluation's rows in every event (e.g. the
	// benchmark name).
	Scope string
	// Wrap, when non-nil, decorates the task before evaluation; it is
	// the hook the fault-injection harness (Faults.Wrap) plugs into.
	Wrap func(Task) Task
	// Recorder observes the evaluation: run start and finish, per-row
	// queue wait, worker occupancy, attempt latency with classified
	// outcome (error/panic), completions, and failures. Nil means
	// obs.Nop, which adds zero allocations (see the benchmark in this
	// package). Recorders only observe; scheduling and results are
	// bit-identical whichever one is given. The runner always reports
	// RowFinished with fromCheckpoint=false; campaign runs (package
	// dist) set it for rows a previous run already committed.
	Recorder obs.Recorder
}

// RowError records the failure of one row.
type RowError struct {
	Scope string
	Row   int
	Err   error
}

func (e *RowError) Error() string {
	where := fmt.Sprintf("row %d", e.Row)
	if e.Scope != "" {
		where = fmt.Sprintf("%s %s", e.Scope, where)
	}
	return fmt.Sprintf("%s failed: %v", where, e.Err)
}

func (e *RowError) Unwrap() error { return e.Err }

// RunError aggregates every row that failed during one Evaluate call.
// Successful rows are still present in the returned slice, but the
// caller must not use it: partial responses would silently corrupt
// effects and ranks.
type RunError struct {
	N    int // total rows in the evaluation
	Rows []*RowError
}

func (e *RunError) Error() string {
	msg := fmt.Sprintf("runner: %d of %d rows failed; first: %v", len(e.Rows), e.N, e.Rows[0])
	if len(e.Rows) > 1 {
		msg += fmt.Sprintf(" (and %d more)", len(e.Rows)-1)
	}
	return msg
}

// Unwrap exposes the individual row errors to errors.Is / errors.As.
func (e *RunError) Unwrap() []error {
	errs := make([]error, len(e.Rows))
	for i, r := range e.Rows {
		errs[i] = r
	}
	return errs
}

// PanicError is the error a recovered worker panic is converted into;
// it fails its row like any other attempt error.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Evaluate computes task(ctx, i) for every i in [0, n) using a bounded
// worker pool and returns the n response values in row order.
//
// Failure semantics:
//   - Every row is attempted exactly once. A row whose attempt returns
//     an error or panics is recorded and evaluation of the remaining
//     rows continues; Evaluate then returns a *RunError aggregating
//     every failed row.
//   - Cancelling ctx stops the pool: workers take no new rows,
//     in-flight attempts see their context expire (a task that does
//     not check it finishes its row), and Evaluate joins
//     every worker before returning ctx's error. No goroutines leak.
//     A deadline on ctx is a cancellation like any other: the rows it
//     cuts short are not failures, and Cancelled(err) holds.
func Evaluate(ctx context.Context, n int, task Task, cfg Config) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative row count %d", n)
	}
	parallelism := cfg.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	task = cfg.prepare(task)
	rec := cfg.Recorder
	runStart := time.Now()
	rec.RunStarted(cfg.Scope, n)

	responses := make([]float64, n)
	var (
		next   atomic.Int64 // replaces the historical mutex-guarded counter
		mu     sync.Mutex   // guards failed
		failed []*RowError
		wg     sync.WaitGroup
	)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				rec.QueueWait(cfg.Scope, i, time.Since(runStart))
				v, err := runRow(ctx, task, i, cfg)
				if err != nil {
					if ctx.Err() != nil {
						// The run was cancelled; the row did not fail
						// on its own merits.
						return
					}
					mu.Lock()
					failed = append(failed, err)
					mu.Unlock()
					continue
				}
				// Each row index i is claimed by exactly one worker via the
				// atomic counter, so writes to responses land on disjoint
				// elements.
				responses[i] = v
			}
		}()
	}
	wg.Wait()
	rec.RunFinished(cfg.Scope, time.Since(runStart))
	if err := ctx.Err(); err != nil {
		return responses, fmt.Errorf("runner: evaluation interrupted: %w", err)
	}
	if len(failed) > 0 {
		sortRowErrors(failed)
		return responses, &RunError{N: n, Rows: failed}
	}
	return responses, nil
}

// EvaluateRow evaluates one row with everything Evaluate applies to
// each of its rows: cfg.Wrap, the single attempt with panic recovery,
// and the per-row Recorder events under cfg.Scope. It is for callers
// that schedule rows themselves, such as the dist worker, which runs
// one campaign unit at a time under its real row number. Parallelism
// is ignored, and no RunStarted/RunFinished or QueueWait events are
// emitted. A failure returns a *RowError.
func EvaluateRow(ctx context.Context, task Task, row int, cfg Config) (float64, error) {
	task = cfg.prepare(task)
	v, err := runRow(ctx, task, row, cfg)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// prepare fills the Recorder default into cfg and returns task
// decorated by cfg.Wrap.
func (cfg *Config) prepare(task Task) Task {
	if cfg.Recorder == nil {
		cfg.Recorder = obs.Nop{}
	}
	if cfg.Wrap != nil {
		task = cfg.Wrap(task)
	}
	return task
}

// runRow attempts one row once and reports it: worker occupancy, the
// attempt's latency and outcome, then RowFinished on success or
// RowFailed on failure. A row cut short by cancelling ctx is not
// reported as failed; the caller discards its error after checking
// ctx.
func runRow(ctx context.Context, task Task, row int, cfg Config) (float64, *RowError) {
	rec := cfg.Recorder
	rec.WorkerActive(1)
	defer rec.WorkerActive(-1)
	start := time.Now()
	v, err := attemptRow(ctx, task, row)
	latency := time.Since(start)
	rec.AttemptDone(cfg.Scope, row, 0, latency, classifyOutcome(err), err)
	if err != nil {
		if ctx.Err() == nil {
			rec.RowFailed(cfg.Scope, row, 1, err)
		}
		return 0, &RowError{Scope: cfg.Scope, Row: row, Err: err}
	}
	rec.RowFinished(cfg.Scope, row, v, latency, 1, false)
	return v, nil
}

// classifyOutcome maps an attempt error onto the obs event taxonomy.
// The runner owns this mapping because only it knows its error types;
// package obs stays free of module dependencies.
func classifyOutcome(err error) obs.Outcome {
	if err == nil {
		return obs.OK
	}
	var p *PanicError
	if errors.As(err, &p) {
		return obs.Panicked
	}
	return obs.Errored
}

// attemptRow runs a single attempt, converting a panic into a
// *PanicError instead of killing the worker.
func attemptRow(ctx context.Context, task Task, row int) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return task(ctx, row)
}

// sortRowErrors orders the aggregate by row index so error output is
// stable regardless of worker scheduling.
func sortRowErrors(errs []*RowError) {
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j].Row < errs[j-1].Row; j-- {
			errs[j], errs[j-1] = errs[j-1], errs[j]
		}
	}
}

// Cancelled reports whether err (or anything it wraps) is a context
// cancellation or deadline error, the signature of an interrupted run
// as opposed to a genuinely failed one.
func Cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
