package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pbsim/internal/obs"
)

// TestEvaluateRecorderEvents drives an evaluation with one failing and
// one panicking row through a Metrics recorder and asserts the
// aggregates are exact.
func TestEvaluateRecorderEvents(t *testing.T) {
	const n = 12
	task := func(ctx context.Context, row int) (float64, error) {
		switch row {
		case 5:
			return 0, errors.New("broken row")
		case 6:
			panic("worker crash")
		}
		return float64(row), nil
	}
	m := obs.NewMetrics()
	got, err := Evaluate(context.Background(), n, task, Config{
		Parallelism: 3,
		Scope:       "s",
		Recorder:    m,
	})
	var re *RunError
	if !errors.As(err, &re) || len(re.Rows) != 2 {
		t.Fatalf("err = %v, want *RunError with 2 rows", err)
	}
	for row, v := range got {
		if row != 5 && row != 6 && v != float64(row) {
			t.Errorf("row %d = %v", row, v)
		}
	}
	if v := m.RowsResumed.Value(); v != 0 {
		t.Errorf("RowsResumed = %d, want 0", v)
	}
	if v := m.RowsSimulated.Value(); v != n-2 {
		t.Errorf("RowsSimulated = %d, want %d", v, n-2)
	}
	if v := m.RowsFailed.Value(); v != 2 {
		t.Errorf("RowsFailed = %d, want 2", v)
	}
	// One attempt per row, the failed ones included.
	if v := m.RowsSimulated.Value() + m.RowsFailed.Value(); v != n {
		t.Errorf("RowsSimulated + RowsFailed = %d, want %d", v, n)
	}
	if v := m.Panics.Value(); v != 1 {
		t.Errorf("Panics = %d, want 1", v)
	}
	if v := m.RowLatency.Count(); v != int64(n-2) {
		t.Errorf("RowLatency count = %d, want %d", v, n-2)
	}
	if v := m.Workers.Peak(); v < 1 || v > 3 {
		t.Errorf("worker peak = %d, want in [1, 3]", v)
	}
	if v := m.Queued.Count(); v != n {
		t.Errorf("queue wait observations = %d, want %d", v, n)
	}
}

// TestEvaluateRecorderFailures pins the failure-side events: RowFailed
// for a row that errors and for one that panics, with each attempt
// classified.
func TestEvaluateRecorderFailures(t *testing.T) {
	m := obs.NewMetrics()
	task := func(ctx context.Context, row int) (float64, error) {
		if row == 1 {
			panic("always panics")
		}
		return 0, errors.New("always fails")
	}
	_, err := Evaluate(context.Background(), 2, task, Config{Parallelism: 2, Recorder: m})
	var re *RunError
	if !errors.As(err, &re) || len(re.Rows) != 2 {
		t.Fatalf("err = %v, want *RunError with 2 rows", err)
	}
	if v := m.RowsFailed.Value(); v != 2 {
		t.Errorf("RowsFailed = %d, want 2", v)
	}
	if v := m.Panics.Value(); v != 1 {
		t.Errorf("Panics = %d, want 1 (row 1)", v)
	}
	if v := m.RowsSimulated.Value(); v != 0 {
		t.Errorf("RowsSimulated = %d, want 0", v)
	}
}

// TestRecorderDoesNotPerturbResults is the bit-identical guarantee:
// the same evaluation with and without a recorder produces exactly
// the same responses.
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	task := func(_ context.Context, row int) (float64, error) {
		return float64(row)*1.7 + 0.3, nil
	}
	run := func(rec obs.Recorder) []float64 {
		out, err := Evaluate(context.Background(), 64, task, Config{
			Parallelism: 4, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(nil)
	recorded := run(obs.NewMetrics())
	for i := range plain {
		if plain[i] != recorded[i] {
			t.Fatalf("row %d differs with recorder enabled: %v != %v", i, plain[i], recorded[i])
		}
	}
}

// TestNopRecorderZeroAllocs proves the per-row events add zero
// allocations to the Evaluate hot path under the no-op Recorder: a
// 64-row run allocates exactly as much as a one-row run.
func TestNopRecorderZeroAllocs(t *testing.T) {
	task := func(_ context.Context, row int) (float64, error) { return float64(row), nil }
	measure := func(rows int) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := Evaluate(context.Background(), rows, task, Config{Parallelism: 1, Recorder: obs.Nop{}}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := measure(1), measure(64); many > one {
		t.Errorf("64 rows allocate %.1f/run, one row %.1f/run: the per-row path allocates", many, one)
	}
}

func benchmarkEvaluate(b *testing.B, rec obs.Recorder) {
	task := func(_ context.Context, row int) (float64, error) { return float64(row), nil }
	cfg := Config{Parallelism: 4, Recorder: rec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(context.Background(), 128, task, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateNop measures the event path feeding the no-op
// Recorder, the default.
func BenchmarkEvaluateNop(b *testing.B) { benchmarkEvaluate(b, obs.Nop{}) }

// BenchmarkEvaluateMetrics measures the live aggregation cost.
func BenchmarkEvaluateMetrics(b *testing.B) { benchmarkEvaluate(b, obs.NewMetrics()) }

// Example of the end-to-end accounting: evaluate with a Metrics
// recorder and render the summary.
func ExampleConfig_recorder() {
	m := obs.NewMetrics()
	task := func(_ context.Context, row int) (float64, error) { return float64(row), nil }
	if _, err := Evaluate(context.Background(), 4, task, Config{Parallelism: 1, Scope: "demo", Recorder: m}); err != nil {
		panic(err)
	}
	fmt.Println(m.RowsSimulated.Value(), "rows simulated,", m.RowsResumed.Value(), "resumed")
	// Output: 4 rows simulated, 0 resumed
}
