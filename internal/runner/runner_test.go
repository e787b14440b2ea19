package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbsim/internal/obs"
)

// sleepRecorder records every backoff delay instead of sleeping, so
// retry-heavy tests run in microseconds.
type sleepRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (s *sleepRecorder) sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.delays = append(s.delays, d)
	s.mu.Unlock()
	return ctx.Err()
}

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

// Property: for arbitrary backoff configurations, every retry delay is
// positive, never exceeds BackoffCap, and never exceeds the jittered
// exponential envelope base<<attempt.
func TestBackoffRespectsCapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		base := time.Duration(1+rng.Intn(1000)) * time.Millisecond
		capDelay := base + time.Duration(rng.Intn(5000))*time.Millisecond
		retries := 1 + rng.Intn(8)
		seed := rng.Int63()
		rec := &sleepRecorder{}
		cfg := Config{
			Parallelism: 2,
			Retries:     retries,
			Backoff:     base,
			BackoffCap:  capDelay,
			Seed:        seed,
			sleep:       rec.sleep,
		}
		failing := func(context.Context, int) (float64, error) {
			return 0, errors.New("always fails")
		}
		const n = 5
		_, err := Evaluate(context.Background(), n, failing, cfg)
		var runErr *RunError
		if !errors.As(err, &runErr) {
			t.Fatalf("trial %d: want *RunError, got %v", trial, err)
		}
		if len(runErr.Rows) != n {
			t.Fatalf("trial %d: %d failed rows, want %d", trial, len(runErr.Rows), n)
		}
		for _, re := range runErr.Rows {
			if re.Attempts != retries+1 {
				t.Errorf("trial %d row %d: %d attempts, want %d", trial, re.Row, re.Attempts, retries+1)
			}
		}
		if want := n * retries; len(rec.delays) != want {
			t.Errorf("trial %d: %d backoff sleeps, want %d", trial, len(rec.delays), want)
		}
		for _, d := range rec.delays {
			if d <= 0 {
				t.Errorf("trial %d: non-positive backoff %v", trial, d)
			}
			if d > capDelay {
				t.Errorf("trial %d: backoff %v exceeds cap %v", trial, d, capDelay)
			}
		}
	}
}

// Property: the delay schedule is a pure function of (seed, row,
// attempt) — replaying a configuration yields the identical schedule.
func TestBackoffDeterministic(t *testing.T) {
	cfg := Config{Backoff: 10 * time.Millisecond, BackoffCap: time.Second, Seed: 42}
	for row := 0; row < 20; row++ {
		for attempt := 0; attempt < 6; attempt++ {
			a := backoffDelay(cfg, row, attempt)
			b := backoffDelay(cfg, row, attempt)
			if a != b {
				t.Fatalf("row %d attempt %d: %v != %v", row, attempt, a, b)
			}
			if a < cfg.Backoff/2 {
				t.Errorf("row %d attempt %d: delay %v below half the base", row, attempt, a)
			}
		}
	}
	other := cfg
	other.Seed = 43
	same := 0
	for row := 0; row < 20; row++ {
		if backoffDelay(cfg, row, 3) == backoffDelay(other, row, 3) {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical jitter everywhere")
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
		_, err := Evaluate(ctx, 1000, task, Config{Parallelism: 8, Retries: 3})
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
	got, err := Evaluate(context.Background(), 8, task, Config{Parallelism: 4, Retries: 1, sleep: noSleep})
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

// The acceptance scenario: seeded transient failures, one panicking
// row, and one row whose first attempt crashes at the commit boundary
// — the evaluation completes via retries with correct values.
func TestFaultedEvaluationCompletes(t *testing.T) {
	faults := &Faults{
		Seed:      1,
		FailRows:  map[int]int{2: 2, 9: 1},
		PanicRows: map[int]int{5: 1},
		CrashRows: map[int]int{7: 1},
	}
	task := func(_ context.Context, i int) (float64, error) { return 100 + float64(i), nil }
	got, err := Evaluate(context.Background(), 12, task, Config{
		Parallelism: 4,
		Retries:     3,
		Backoff:     time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		Wrap:        faults.Wrap,
	})
	if err != nil {
		t.Fatalf("faulted evaluation failed: %v", err)
	}
	for i, v := range got {
		if v != 100+float64(i) {
			t.Errorf("row %d: got %g, want %g", i, v, 100+float64(i))
		}
	}
	if faults.Injected() <= 12 {
		t.Errorf("fault harness saw %d attempts; retries evidently never happened", faults.Injected())
	}
}

// A deadline on the caller's context, expiring while a row is in
// flight, is an interruption, never a row failure: Evaluate returns an
// error Cancelled recognizes, reports no RowFailed, schedules no retry
// and takes no new rows. Row 5 honours ctx and waits for the deadline;
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
	_, err := Evaluate(ctx, n, task, Config{Parallelism: 2, Retries: 2, Recorder: m})
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
	if v := m.Retries.Value(); v != 0 {
		t.Errorf("Retries = %d, want 0: an expired deadline is not retried", v)
	}
	if v := m.RowsSimulated.Value(); v >= n-1 {
		t.Errorf("RowsSimulated = %d: workers kept taking rows after the deadline", v)
	}
}

// Exhausted retries must fail the evaluation with an aggregate error
// naming every failed row — never degrade to silent NaNs.
func TestExhaustedRetriesAggregate(t *testing.T) {
	task := func(_ context.Context, i int) (float64, error) {
		if i%2 == 0 {
			return 0, fmt.Errorf("row %d permanently broken", i)
		}
		return 1, nil
	}
	_, err := Evaluate(context.Background(), 10, task, Config{Parallelism: 3, Retries: 2, sleep: noSleep})
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
	if msg := err.Error(); !strings.Contains(msg, "5 of 10 rows failed permanently; first: row 0 failed after 3 attempt(s)") ||
		!strings.HasSuffix(msg, "(and 4 more)") {
		t.Errorf("aggregate message = %q", msg)
	}
	var rowErr *RowError
	if !errors.As(err, &rowErr) || rowErr.Row != 0 {
		t.Errorf("errors.As through the aggregate found %v, want row 0", rowErr)
	}
}

// rowLog records the row of every RowRetried and RowFinished event
// of a single-goroutine evaluation.
type rowLog struct {
	obs.Nop
	rows []int
}

func (l *rowLog) RowRetried(_ string, row, _ int, _ time.Duration, _ error) {
	l.rows = append(l.rows, row)
}

func (l *rowLog) RowFinished(_ string, row int, _ float64, _ time.Duration, _ int, _ bool) {
	l.rows = append(l.rows, row)
}

// EvaluateRow applies Wrap, retries and the per-row Recorder events
// under the row number it is given, and reports a permanent failure as
// a *RowError.
func TestEvaluateRowKeepsRowNumber(t *testing.T) {
	faults := &Faults{FailRows: map[int]int{41: 1}}
	seen := &rowLog{}
	cfg := Config{
		Retries:  1,
		Scope:    "s",
		Wrap:     faults.Wrap,
		Recorder: seen,
		sleep:    noSleep,
	}
	task := func(_ context.Context, i int) (float64, error) { return float64(i), nil }
	v, err := EvaluateRow(context.Background(), task, 41, cfg)
	if err != nil || v != 41 {
		t.Fatalf("EvaluateRow = %v, %v; want 41", v, err)
	}
	if len(seen.rows) != 2 || seen.rows[0] != 41 || seen.rows[1] != 41 {
		t.Errorf("recorder saw rows %v, want [41 41] (one retry, one completion)", seen.rows)
	}
	cfg.Wrap, cfg.Recorder = nil, nil
	broken := func(context.Context, int) (float64, error) { return 0, errors.New("broken") }
	var rowErr *RowError
	if _, err := EvaluateRow(context.Background(), broken, 9, cfg); !errors.As(err, &rowErr) || rowErr.Row != 9 || rowErr.Attempts != 2 {
		t.Fatalf("EvaluateRow(broken) = %v, want *RowError for row 9 after 2 attempts", err)
	}
}

func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }
