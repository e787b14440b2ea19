package runner

import (
	"context"
	"errors"
	"testing"
)

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

	// Through the runner, a crashing row is attempted once and fails
	// with ErrCrash in its chain; the other rows keep their values.
	f2 := &Faults{CrashRows: map[int]int{1: 2}}
	vals, err := Evaluate(context.Background(), 3,
		func(_ context.Context, i int) (float64, error) { return float64(i), nil },
		Config{Wrap: f2.Wrap})
	var runErr *RunError
	if !errors.As(err, &runErr) || len(runErr.Rows) != 1 || runErr.Rows[0].Row != 1 || !errors.Is(err, ErrCrash) {
		t.Fatalf("crashing row: Evaluate = %v, want a *RunError naming row 1 with ErrCrash", err)
	}
	if vals[0] != 0 || vals[2] != 2 || f2.Injected() != 3 {
		t.Errorf("values %v after %d executions, want [0 _ 2] after 3", vals, f2.Injected())
	}
}
