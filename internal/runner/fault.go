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
// terminate, which is what turns the injection into real kill/restart
// chaos.
var ErrCrash = fmt.Errorf("%w: crash at commit boundary", ErrInjected)

// Faults is a deterministic fault-injection wrapper for tasks: every
// decision keys off the row and the number of times that row has
// already been executed through this wrapper, so the same schedule of
// executions always meets the same faults. Within one Evaluate a row
// is executed once, so only its first-execution fault can fire there;
// the later counts matter to dist campaigns, where a restarted worker
// re-executes a unit that died uncommitted. Tests (and the
// resilientrun example) use it to check that a failure or panic
// surfaces as its row's error and that a campaign converges despite
// crashes at the commit boundary.
type Faults struct {
	// FailRows maps row → number of leading executions that return an
	// injected error before the row starts succeeding.
	FailRows map[int]int
	// PanicRows maps row → number of leading executions that panic.
	PanicRows map[int]int
	// CrashRows maps row → number of leading executions that die at
	// the commit boundary: the wrapped task executes fully (the
	// simulated work is really done) and only then the execution
	// fails with ErrCrash, discarding the computed value. Every mode
	// counts on the same per-row counter, so a row with CrashRows[r]=k
	// commits on its k+1-th execution regardless of which worker (or
	// restarted process) runs it — the property the chaos harness and
	// the resilientrun example both lean on.
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
		v, err := task(ctx, row)
		if err == nil && attempt < f.CrashRows[row] {
			return 0, fmt.Errorf("%w: row %d attempt %d (result discarded)", ErrCrash, row, attempt)
		}
		return v, err
	}
}

// Injected reports how many executions the harness has intercepted so
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
