package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbsim/internal/obs"
)

func TestEvaluateCoversEveryRowOnce(t *testing.T) {
	const n = 100
	var calls atomic.Int64
	task := func(_ context.Context, i int) (float64, error) {
		calls.Add(1)
		return float64(i * i), nil
	}
	for _, par := range []int{0, 1, 3, 64} {
		calls.Store(0)
		got, err := Evaluate(context.Background(), n, task, Config{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if calls.Load() != n {
			t.Errorf("parallelism %d: %d calls, want %d", par, calls.Load(), n)
		}
		for i, v := range got {
			if v != float64(i*i) {
				t.Errorf("parallelism %d row %d: got %g", par, i, v)
			}
		}
	}
}

// Cancellation must drain every worker — no goroutine leaks, no task
// invocations after Evaluate returns.
func TestCancellationDrainsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var calls atomic.Int64
	task := func(ctx context.Context, i int) (float64, error) {
		calls.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // block until cancelled, like a hung simulation
		return 0, ctx.Err()
	}
	done := make(chan error, 1)
	go func() {
		_, err := Evaluate(ctx, 1000, task, Config{Parallelism: 8})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !Cancelled(err) {
			t.Fatalf("want cancellation error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Evaluate did not return after cancellation")
	}
	after := calls.Load()
	time.Sleep(50 * time.Millisecond)
	if now := calls.Load(); now != after {
		t.Errorf("tasks still running after Evaluate returned: %d -> %d", after, now)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// A worker that panics must become a per-row error, not a dead
// process, and must not disturb the other rows.
func TestPanicRecoveryIsolatesRow(t *testing.T) {
	task := func(_ context.Context, i int) (float64, error) {
		if i == 3 {
			panic("injected crash")
		}
		return float64(i), nil
	}
	got, err := Evaluate(context.Background(), 8, task, Config{Parallelism: 4})
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if len(runErr.Rows) != 1 || runErr.Rows[0].Row != 3 {
		t.Fatalf("failed rows = %+v, want only row 3", runErr.Rows)
	}
	var pe *PanicError
	if !errors.As(runErr.Rows[0].Err, &pe) {
		t.Fatalf("row error %v does not wrap *PanicError", runErr.Rows[0].Err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if pe.Error() != "panic: injected crash" {
		t.Errorf("PanicError = %q", pe.Error())
	}
	for i, v := range got {
		if i != 3 && v != float64(i) {
			t.Errorf("row %d corrupted: %g", i, v)
		}
	}
}

// The fault-injection scenario: injected failures, one panicking row,
// and one row that crashes at the commit boundary. The evaluation runs
// every row exactly once, completes every healthy row with its correct
// value, and aggregates exactly the faulted rows.
func TestFaultedEvaluationCompletes(t *testing.T) {
	faults := &Faults{
		FailRows:  map[int]int{2: 2, 9: 1},
		PanicRows: map[int]int{5: 1},
		CrashRows: map[int]int{7: 1},
	}
	task := func(_ context.Context, i int) (float64, error) { return 100 + float64(i), nil }
	got, err := Evaluate(context.Background(), 12, task, Config{Parallelism: 4, Wrap: faults.Wrap})
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("faulted evaluation = %v, want *RunError", err)
	}
	var rows []int
	for _, re := range runErr.Rows {
		rows = append(rows, re.Row)
	}
	if fmt.Sprint(rows) != "[2 5 7 9]" {
		t.Fatalf("failed rows = %v, want [2 5 7 9]", rows)
	}
	var pe *PanicError
	if !errors.As(runErr.Rows[1], &pe) || !errors.Is(runErr.Rows[2], ErrCrash) || !errors.Is(runErr.Rows[3], ErrInjected) {
		t.Errorf("row errors = %v; want a panic at row 5, a crash at row 7, an injected failure at row 9", runErr.Rows)
	}
	for i, v := range got {
		if i != 2 && i != 5 && i != 7 && i != 9 && v != 100+float64(i) {
			t.Errorf("row %d: got %g, want %g", i, v, 100+float64(i))
		}
	}
	if faults.Injected() != 12 {
		t.Errorf("fault harness saw %d executions, want 12: one per row", faults.Injected())
	}
}

// Every row is attempted exactly once: a task that fails row k and
// panics at row p is called n times in all, the aggregate names rows k
// and p, the panic stays a *PanicError in the chain, and every other
// row keeps its value.
func TestEveryRowAttemptedOnce(t *testing.T) {
	const n, k, p = 30, 11, 17
	var calls atomic.Int64
	task := func(_ context.Context, i int) (float64, error) {
		calls.Add(1)
		switch i {
		case k:
			return 0, errors.New("deterministic failure")
		case p:
			panic("deterministic panic")
		}
		return float64(3 * i), nil
	}
	m := obs.NewMetrics()
	got, err := Evaluate(context.Background(), n, task, Config{Parallelism: 4, Recorder: m})
	if c := calls.Load(); c != n {
		t.Errorf("task called %d times, want %d", c, n)
	}
	var runErr *RunError
	if !errors.As(err, &runErr) || len(runErr.Rows) != 2 || runErr.Rows[0].Row != k || runErr.Rows[1].Row != p {
		t.Fatalf("Evaluate = %v, want a *RunError naming rows %d and %d", err, k, p)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "runner: 2 of 30 rows failed permanently; first: row 11 failed after 1 attempt(s): deterministic failure") {
		t.Errorf("aggregate message = %q", msg)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "deterministic panic" {
		t.Errorf("errors.As through the aggregate found %v, want row %d's *PanicError", pe, p)
	}
	for i, v := range got {
		if i != k && i != p && v != float64(3*i) {
			t.Errorf("row %d = %g, want %d", i, v, 3*i)
		}
	}
	if a, f := m.Attempts.Value(), m.RowsFailed.Value(); a != n || f != 2 {
		t.Errorf("Attempts = %d, RowsFailed = %d; want %d and 2", a, f, n)
	}
}

// A deadline on the caller's context, expiring while a row is in
// flight, is an interruption, never a row failure: Evaluate returns an
// error Cancelled recognizes, reports no RowFailed and takes no new
// rows. Row 5 honours ctx and waits for the deadline;
// the others ignore ctx, as a simulated row does.
func TestCallerDeadlineInterruptsEvaluate(t *testing.T) {
	const n = 40
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	task := func(ctx context.Context, row int) (float64, error) {
		if row == 5 {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		// The other worker can run at most 25 of these before the
		// deadline, so the run cannot finish.
		time.Sleep(2 * time.Millisecond)
		return float64(row), nil
	}
	m := obs.NewMetrics()
	_, err := Evaluate(ctx, n, task, Config{Parallelism: 2, Recorder: m})
	if !Cancelled(err) {
		t.Fatalf("Evaluate = %v, want an interruption", err)
	}
	var re *RunError
	if errors.As(err, &re) {
		t.Fatalf("Evaluate reported row failures: %v", err)
	}
	if v := m.RowsFailed.Value(); v != 0 {
		t.Errorf("RowsFailed = %d, want 0", v)
	}
	if v := m.RowsSimulated.Value(); v >= n-1 {
		t.Errorf("RowsSimulated = %d: workers kept taking rows after the deadline", v)
	}
}

// Failed rows must fail the evaluation with an aggregate error naming
// every failed row — never degrade to silent NaNs.
func TestFailedRowsAggregate(t *testing.T) {
	task := func(_ context.Context, i int) (float64, error) {
		if i%2 == 0 {
			return 0, fmt.Errorf("row %d permanently broken", i)
		}
		return 1, nil
	}
	_, err := Evaluate(context.Background(), 10, task, Config{Parallelism: 3})
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if len(runErr.Rows) != 5 {
		t.Fatalf("%d failed rows, want 5", len(runErr.Rows))
	}
	for i := 1; i < len(runErr.Rows); i++ {
		if runErr.Rows[i].Row <= runErr.Rows[i-1].Row {
			t.Errorf("aggregate not sorted by row: %d after %d", runErr.Rows[i].Row, runErr.Rows[i-1].Row)
		}
	}
	if runErr.N != 10 {
		t.Errorf("RunError.N = %d, want 10", runErr.N)
	}
	if msg := err.Error(); !strings.Contains(msg, "5 of 10 rows failed permanently; first: row 0 failed after 1 attempt(s)") ||
		!strings.HasSuffix(msg, "(and 4 more)") {
		t.Errorf("aggregate message = %q", msg)
	}
	var rowErr *RowError
	if !errors.As(err, &rowErr) || rowErr.Row != 0 {
		t.Errorf("errors.As through the aggregate found %v, want row 0", rowErr)
	}
}

// rowLog records the row of every RowFailed and RowFinished event of
// a single-goroutine evaluation.
type rowLog struct {
	obs.Nop
	rows []int
}

func (l *rowLog) RowFailed(_ string, row, _ int, _ error) {
	l.rows = append(l.rows, row)
}

func (l *rowLog) RowFinished(_ string, row int, _ float64, _ time.Duration, _ int, _ bool) {
	l.rows = append(l.rows, row)
}

// EvaluateRow applies Wrap and the per-row Recorder events under the
// row number it is given, attempts the row once, and reports a failure
// as a *RowError. A second call re-executes the row, as a restarted
// campaign worker does; the injected fault fired only on the first.
func TestEvaluateRowKeepsRowNumber(t *testing.T) {
	faults := &Faults{FailRows: map[int]int{41: 1}}
	seen := &rowLog{}
	cfg := Config{Scope: "s", Wrap: faults.Wrap, Recorder: seen}
	task := func(_ context.Context, i int) (float64, error) { return float64(i), nil }
	var rowErr *RowError
	if _, err := EvaluateRow(context.Background(), task, 41, cfg); !errors.As(err, &rowErr) || rowErr.Row != 41 || rowErr.Scope != "s" || rowErr.Attempts != 1 {
		t.Fatalf("EvaluateRow = %v, want *RowError for s row 41 after 1 attempt", err)
	}
	v, err := EvaluateRow(context.Background(), task, 41, cfg)
	if err != nil || v != 41 {
		t.Fatalf("EvaluateRow = %v, %v; want 41", v, err)
	}
	if len(seen.rows) != 2 || seen.rows[0] != 41 || seen.rows[1] != 41 {
		t.Errorf("recorder saw rows %v, want [41 41] (one failure, one completion)", seen.rows)
	}
	if faults.Injected() != 2 {
		t.Errorf("fault harness saw %d executions, want 2", faults.Injected())
	}
}
