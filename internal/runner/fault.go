package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the root of every error produced by the
// fault-injection harness, so tests can errors.Is for it.
var ErrInjected = errors.New("injected fault")

// ErrCrash marks a simulated process death at the commit boundary:
// the task ran to completion but its result was discarded, exactly as
// if the worker process died after computing a row and before
// committing it. It wraps ErrInjected, so generic fault checks still
// match; dist workers additionally errors.Is for ErrCrash and
// terminate instead of retrying, which is what turns the injection
// into real kill/restart chaos.
var ErrCrash = fmt.Errorf("%w: crash at commit boundary", ErrInjected)

// Faults is a deterministic fault-injection wrapper for tasks: given
// the same Seed and the same schedule of attempts, it makes identical
// decisions, which lets tests (and the resilientrun example) assert
// that a suite completes despite failures, panics, and crashes at the
// commit boundary.
//
// Deterministic modes key off the row and the per-row attempt number;
// the probabilistic mode keys off (Seed, row, attempt) through the
// same splitmix64 hash the backoff jitter uses, so no global RNG state
// is shared between workers.
type Faults struct {
	// Seed drives the probabilistic failure mode.
	Seed int64
	// FailProb is the per-attempt probability of a transient injected
	// error (0 disables).
	FailProb float64
	// FailRows maps row → number of leading attempts that return an
	// injected error before the row starts succeeding.
	FailRows map[int]int
	// PanicRows maps row → number of leading attempts that panic.
	PanicRows map[int]int
	// CrashRows maps row → number of leading attempts that die at the
	// commit boundary: the wrapped task executes fully (the simulated
	// work is really done) and only then the attempt fails with
	// ErrCrash, discarding the computed value. Attempt accounting uses
	// the same per-row counter as every other mode, so a row with
	// CrashRows[r]=k commits on its k+1-th execution regardless of
	// which worker (or restarted process) runs it — the property the
	// chaos harness and the resilientrun example both lean on.
	CrashRows map[int]int

	mu       sync.Mutex
	attempts map[int]int
}

// Wrap decorates task with the configured faults. It is the value to
// assign to Config.Wrap.
func (f *Faults) Wrap(task Task) Task {
	return func(ctx context.Context, row int) (float64, error) {
		attempt := f.nextAttempt(row)
		if attempt < f.PanicRows[row] {
			//pbcheck:ignore nopanic deliberately injected panic: this is the fault injector exercising the runner's recovery path
			panic(fmt.Sprintf("%v: row %d attempt %d", ErrInjected, row, attempt))
		}
		if attempt < f.FailRows[row] {
			return 0, fmt.Errorf("%w: row %d attempt %d", ErrInjected, row, attempt)
		}
		if f.FailProb > 0 && hashFloat(f.Seed, uint64(row), uint64(attempt)) < f.FailProb {
			return 0, fmt.Errorf("%w: row %d attempt %d (seeded)", ErrInjected, row, attempt)
		}
		v, err := task(ctx, row)
		if err == nil && attempt < f.CrashRows[row] {
			return 0, fmt.Errorf("%w: row %d attempt %d (result discarded)", ErrCrash, row, attempt)
		}
		return v, err
	}
}

// Injected reports how many attempts the harness has intercepted so
// far (equal to the number of task invocations it observed).
func (f *Faults) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, n := range f.attempts {
		total += n
	}
	return total
}

func (f *Faults) nextAttempt(row int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.attempts == nil {
		f.attempts = make(map[int]int)
	}
	n := f.attempts[row]
	f.attempts[row] = n + 1
	return n
}
