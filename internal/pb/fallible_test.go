package pb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbsim/internal/obs"
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
)

// suiteFixture is a deterministic 3-benchmark suite whose responses
// exercise non-trivial float64 bit patterns.
func suiteFixture() ([]Factor, []string, []Response) {
	factors := []Factor{
		{Name: "A"}, {Name: "B"}, {Name: "C"}, {Name: "D"}, {Name: "E"},
	}
	benchmarks := []string{"alpha", "beta", "gamma"}
	responses := make([]Response, len(benchmarks))
	for bi := range benchmarks {
		weight := float64(bi + 1)
		responses[bi] = func(_ context.Context, levels []Level) (float64, error) {
			y := 1000.0
			for j, lv := range levels {
				y += weight * math.Sin(float64(j+1)) * float64(lv) * math.Sqrt(float64(j)+1.5)
			}
			return y, nil
		}
	}
	return factors, benchmarks, responses
}

// An interrupted checkpointed suite — a campaign directory whose
// worker died mid-suite — resumed by a fresh worker must reproduce
// bit-identical responses, effects, and Table-9 rank sums compared to
// an uninterrupted in-memory run.
func TestSuiteCheckpointResumeBitIdentical(t *testing.T) {
	factors, benchmarks, responses := suiteFixture()
	design := mustNew(t, len(factors), true)

	// Reference: uninterrupted, in memory.
	want, err := RunSuite(context.Background(), design, factors, benchmarks, responses, runner.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	man := dist.Manifest{Fingerprint: "fixture"}
	for _, b := range benchmarks {
		man.Scopes = append(man.Scopes, dist.ScopeSpec{Name: b, Rows: design.Runs()})
	}
	dir := t.TempDir()
	if _, err := dist.Create(dir, man); err != nil {
		t.Fatal(err)
	}
	var evaluated atomic.Int64
	task := func(ctx context.Context, scope string, row int) (float64, error) {
		evaluated.Add(1)
		for bi, b := range benchmarks {
			if b == scope {
				return responses[bi](ctx, design.Row(row))
			}
		}
		return 0, fmt.Errorf("unknown scope %q", scope)
	}

	// Interrupted run: the worker dies at the commit boundary of its
	// 21st unit, mid-suite.
	var budget atomic.Int64
	budget.Store(20)
	crashing := func(next runner.Task) runner.Task {
		return func(ctx context.Context, row int) (float64, error) {
			v, err := next(ctx, row)
			if err == nil && budget.Add(-1) < 0 {
				return 0, runner.ErrCrash
			}
			return v, err
		}
	}
	const ttl = 20 * time.Millisecond
	_, err = dist.Run(context.Background(), dir, task, 1, dist.Config{ID: "first", LeaseTTL: ttl, Wrap: crashing})
	if !errors.Is(err, runner.ErrCrash) {
		t.Fatalf("interrupted run = %v, want a crash", err)
	}

	// Resume: a fresh worker over the same directory.
	evaluated.Store(0)
	m := obs.NewMetrics()
	res, err := dist.Run(context.Background(), dir, task, 2, dist.Config{
		ID:       "second",
		LeaseTTL: ttl, // the dead worker's lease expires while this one works
		Recorder: m,
	})
	restored := m.RowsResumed.Value()
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	totalRows := design.Runs() * len(benchmarks)
	if restored != 20 || int(evaluated.Load()) != totalRows-20 {
		t.Errorf("resume restored %d and evaluated %d rows, want 20 and %d", restored, evaluated.Load(), totalRows-20)
	}
	vecs := make([][]float64, len(benchmarks))
	for bi, b := range benchmarks {
		if vecs[bi], err = res.Responses(b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := SuiteFromResponses(design, factors, benchmarks, vecs)
	if err != nil {
		t.Fatal(err)
	}

	for bi := range benchmarks {
		for i := range want.Results[bi].Responses {
			w, g := want.Results[bi].Responses[i], got.Results[bi].Responses[i]
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("benchmark %s row %d: response %v != %v (not bit-identical)", benchmarks[bi], i, g, w)
			}
		}
		for j := range want.Results[bi].Effects {
			w, g := want.Results[bi].Effects[j], got.Results[bi].Effects[j]
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("benchmark %s effect %d: %v != %v", benchmarks[bi], j, g, w)
			}
		}
	}
	for j := range want.Sums {
		if want.Sums[j] != got.Sums[j] {
			t.Fatalf("rank sum %d: %d != %d", j, got.Sums[j], want.Sums[j])
		}
	}
	for j := range want.Order {
		if want.Order[j] != got.Order[j] {
			t.Fatalf("Table-9 order position %d: %d != %d", j, got.Order[j], want.Order[j])
		}
	}
}

// A suite with injected faults (a failure, a panic, a crash at the
// commit boundary) fails on the first benchmark with an aggregate
// naming exactly the faulted rows, each attempted once. The faults
// fire on a row's first execution only, so a rerun — what a restarted
// campaign worker does — completes and matches the fault-free result
// exactly.
func TestSuiteCompletesDespiteInjectedFaults(t *testing.T) {
	factors, benchmarks, responses := suiteFixture()
	design := mustNew(t, len(factors), true)
	clean, err := RunSuite(context.Background(), design, factors, benchmarks, responses, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	faults := &runner.Faults{
		FailRows:  map[int]int{2: 1},
		PanicRows: map[int]int{4: 1},
		CrashRows: map[int]int{6: 1},
	}
	cfg := runner.Config{Parallelism: 3, Wrap: faults.Wrap}
	_, err = RunSuite(context.Background(), design, factors, benchmarks, responses, cfg)
	var runErr *runner.RunError
	if !errors.As(err, &runErr) || !strings.HasPrefix(err.Error(), "pb: benchmark alpha: ") {
		t.Fatalf("faulted suite = %v, want alpha's *runner.RunError", err)
	}
	if len(runErr.Rows) != 3 || runErr.Rows[0].Row != 2 || runErr.Rows[1].Row != 4 || runErr.Rows[2].Row != 6 {
		t.Fatalf("failed rows = %v, want rows 2, 4 and 6", runErr)
	}
	var pe *runner.PanicError
	if !errors.Is(runErr.Rows[0], runner.ErrInjected) || !errors.As(runErr.Rows[1], &pe) || !errors.Is(runErr.Rows[2], runner.ErrCrash) {
		t.Errorf("row errors = %v, %v, %v; want injected, panic, crash", runErr.Rows[0], runErr.Rows[1], runErr.Rows[2])
	}
	if n := faults.Injected(); n != design.Runs() {
		t.Errorf("fault harness saw %d executions, want %d: one per row of alpha", n, design.Runs())
	}
	got, err := RunSuite(context.Background(), design, factors, benchmarks, responses, cfg)
	if err != nil {
		t.Fatalf("rerun suite failed: %v", err)
	}
	for bi := range benchmarks {
		for i := range clean.Results[bi].Responses {
			w, g := clean.Results[bi].Responses[i], got.Results[bi].Responses[i]
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("benchmark %s row %d: %v != %v", benchmarks[bi], i, g, w)
			}
		}
	}
	for j := range clean.Sums {
		if clean.Sums[j] != got.Sums[j] {
			t.Fatalf("rank sum %d differs under faults: %d != %d", j, got.Sums[j], clean.Sums[j])
		}
	}
}

// Cancelling a suite mid-run surfaces the context error, wrapped with
// the failing benchmark's name.
func TestSuiteCancellation(t *testing.T) {
	factors, benchmarks, responses := suiteFixture()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	gated := make([]Response, len(responses))
	for i, resp := range responses {
		gated[i] = func(ctx context.Context, levels []Level) (float64, error) {
			if calls.Add(1) == 5 {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return resp(ctx, levels)
		}
	}
	_, err := RunSuite(ctx, mustNew(t, len(factors), true), factors, benchmarks, gated, runner.Config{Parallelism: 2})
	if err == nil {
		t.Fatal("cancelled suite succeeded")
	}
	if !runner.Cancelled(err) {
		t.Fatalf("error %v is not a cancellation", err)
	}
}

// The degradation policy: a benchmark whose rows are exhausted fails
// with an aggregate error, and no NaN ever reaches the effects.
func TestSuiteNeverSilentNaN(t *testing.T) {
	factors, benchmarks, responses := suiteFixture()
	broken := make([]Response, len(responses))
	for i, resp := range responses {
		bi := i
		broken[bi] = func(ctx context.Context, levels []Level) (float64, error) {
			if bi == 1 && levels[0] == High {
				return 0, fmt.Errorf("benchmark %d cannot simulate this row", bi)
			}
			return resp(ctx, levels)
		}
	}
	_, err := RunSuite(context.Background(), mustNew(t, len(factors), true), factors, benchmarks, broken, runner.Config{})
	if err == nil {
		t.Fatal("broken suite succeeded")
	}
	var runErr *runner.RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("want *runner.RunError, got %v", err)
	}
	if !strings.Contains(err.Error(), "benchmark beta") {
		t.Errorf("error %q does not name the failing benchmark", err)
	}
}
