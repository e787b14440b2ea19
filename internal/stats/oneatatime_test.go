package stats

import (
	"errors"
	"fmt"
	"testing"
)

func TestOneAtATimeValidation(t *testing.T) {
	resp := func([]int8) (float64, error) { return 0, nil }
	if _, err := OneAtATime(nil, resp); err == nil {
		t.Error("OneAtATime with no factors should error")
	}
	if _, err := OneAtATime([]int8{1, 0, -1}, resp); err == nil {
		t.Error("OneAtATime with a non-±1 base level should error")
	}
	if _, err := OneAtATime([]int8{2}, resp); err == nil {
		t.Error("OneAtATime with level 2 should error")
	}
}

func TestOneAtATimeDeltas(t *testing.T) {
	// Linear response: 10 + 3*x0 - 5*x1 + 0*x2. Flipping factor j
	// from its base level b changes the response by -2*coef[j]*b.
	coef := []float64{3, -5, 0}
	resp := func(levels []int8) (float64, error) {
		s := 10.0
		for j, lv := range levels {
			s += coef[j] * float64(lv)
		}
		return s, nil
	}
	base := []int8{1, -1, 1}
	res, err := OneAtATime(base, resp)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10.0 + 3 + 5; res.Base != want {
		t.Errorf("Base = %v, want %v", res.Base, want)
	}
	wantDeltas := []float64{-6, -10, 0}
	for j, want := range wantDeltas {
		if res.Deltas[j] != want {
			t.Errorf("Deltas[%d] = %v, want %v", j, res.Deltas[j], want)
		}
		if got := res.Responses[j] - res.Base; got != want {
			t.Errorf("Responses[%d]-Base = %v, want %v", j, got, want)
		}
	}
	// The base slice must come back unmodified.
	if base[0] != 1 || base[1] != -1 || base[2] != 1 {
		t.Errorf("base levels mutated: %v", base)
	}
}

// TestOneAtATimeRuns pins the N+1 simulation count the paper's
// Table 1 charges the one-at-a-time straw man with.
func TestOneAtATimeRuns(t *testing.T) {
	for _, n := range []int{1, 2, 7, 43} {
		base := make([]int8, n)
		for i := range base {
			base[i] = 1
		}
		calls := 0
		res, err := OneAtATime(base, func([]int8) (float64, error) { calls++; return 0, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Runs(); got != n+1 {
			t.Errorf("n=%d: Runs() = %d, want %d", n, got, n+1)
		}
		if calls != n+1 {
			t.Errorf("n=%d: response invoked %d times, want %d", n, calls, n+1)
		}
	}
	// A failed run stops the design and surfaces the first failure as
	// the error, never as a NaN inside a result.
	errRow := errors.New("row failure")
	calls := 0
	res, err := OneAtATime([]int8{1, 1, 1}, func([]int8) (float64, error) {
		if calls++; calls > 1 {
			return 0, fmt.Errorf("%w %d", errRow, calls)
		}
		return 1, nil
	})
	if res != nil || !errors.Is(err, errRow) || err.Error() != "stats: one-at-a-time run 1: row failure 2" {
		t.Errorf("failing run: OneAtATime = %v, %v; want nil and the first failure", res, err)
	}
	if calls != 2 {
		t.Errorf("failing run: response invoked %d times, want 2 (the base and the failed run)", calls)
	}
}

// TestOneAtATimeEachRunFlipsOneFactor verifies every non-base run
// differs from the base configuration in exactly one position.
func TestOneAtATimeEachRunFlipsOneFactor(t *testing.T) {
	base := []int8{1, -1, 1, -1}
	var seen [][]int8
	_, err := OneAtATime(base, func(levels []int8) (float64, error) {
		cp := make([]int8, len(levels))
		copy(cp, levels)
		seen = append(seen, cp)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(base)+1 {
		t.Fatalf("saw %d runs, want %d", len(seen), len(base)+1)
	}
	for run := 1; run < len(seen); run++ {
		diffs := 0
		for j := range base {
			if seen[run][j] != base[j] {
				diffs++
				if j != run-1 {
					t.Errorf("run %d flipped factor %d, want factor %d", run, j, run-1)
				}
			}
		}
		if diffs != 1 {
			t.Errorf("run %d differs from base in %d positions, want 1", run, diffs)
		}
	}
}
