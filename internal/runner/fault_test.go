package runner

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFaultsDeterministicFailures(t *testing.T) {
	// Two harnesses with the same seed must inject the identical
	// failure pattern over the identical attempt schedule.
	run := func(seed int64) []bool {
		f := &Faults{Seed: seed, FailProb: 0.4}
		task := f.Wrap(func(context.Context, int) (float64, error) { return 1, nil })
		var pattern []bool
		for row := 0; row < 50; row++ {
			_, err := task(context.Background(), row)
			pattern = append(pattern, err != nil)
		}
		return pattern
	}
	a, b := run(9), run(9)
	failures := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: same seed diverged", i)
		}
		if a[i] {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Errorf("FailProb 0.4 produced %d/%d failures; injection looks broken", failures, len(a))
	}
	c := run(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the identical pattern")
	}
}

func TestFaultsDeterministicModes(t *testing.T) {
	f := &Faults{
		FailRows:  map[int]int{1: 2},
		PanicRows: map[int]int{2: 1},
	}
	task := f.Wrap(func(_ context.Context, i int) (float64, error) { return float64(i), nil })

	// Row 1: exactly the first two attempts fail.
	for attempt := 0; attempt < 4; attempt++ {
		_, err := task(context.Background(), 1)
		wantErr := attempt < 2
		if (err != nil) != wantErr {
			t.Errorf("row 1 attempt %d: err=%v, want failure=%t", attempt, err, wantErr)
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Errorf("row 1 attempt %d: error %v is not ErrInjected", attempt, err)
		}
	}
	// Row 2: first attempt panics, second succeeds.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("row 2 first attempt did not panic")
			}
		}()
		task(context.Background(), 2)
	}()
	if v, err := task(context.Background(), 2); err != nil || v != 2 {
		t.Errorf("row 2 second attempt: v=%v err=%v", v, err)
	}
	// Row 0: untouched.
	if v, err := task(context.Background(), 0); err != nil || v != 0 {
		t.Errorf("row 0: v=%v err=%v", v, err)
	}
}

func TestFaultsCrashRows(t *testing.T) {
	executed := 0
	f := &Faults{CrashRows: map[int]int{3: 2}}
	task := f.Wrap(func(_ context.Context, i int) (float64, error) {
		executed++
		return float64(i) * 10, nil
	})

	// The first two attempts of row 3 execute the task fully, then die
	// at the commit boundary with ErrCrash (which is also ErrInjected).
	for attempt := 0; attempt < 2; attempt++ {
		v, err := task(context.Background(), 3)
		if !errors.Is(err, ErrCrash) || !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: err=%v, want ErrCrash", attempt, err)
		}
		if v != 0 {
			t.Errorf("attempt %d: crashed attempt leaked value %v", attempt, v)
		}
	}
	if executed != 2 {
		t.Errorf("task executed %d times before the crashes, want 2 (crash is AFTER execution)", executed)
	}
	// The third attempt commits.
	if v, err := task(context.Background(), 3); err != nil || v != 30 {
		t.Errorf("post-crash attempt: v=%v err=%v", v, err)
	}
	// Other rows never crash.
	if v, err := task(context.Background(), 0); err != nil || v != 0 {
		t.Errorf("row 0: v=%v err=%v", v, err)
	}

	// Through the runner, a crashing row converges with retries — the
	// in-process analogue of kill/restart convergence.
	f2 := &Faults{CrashRows: map[int]int{1: 2}}
	vals, err := Evaluate(context.Background(), 3,
		func(_ context.Context, i int) (float64, error) { return float64(i), nil },
		Config{Retries: 2, Wrap: f2.Wrap, Backoff: time.Microsecond})
	if err != nil {
		t.Fatalf("crashing row did not converge under retries: %v", err)
	}
	if vals[1] != 1 {
		t.Errorf("row 1 = %v after crash retries, want 1", vals[1])
	}
}
