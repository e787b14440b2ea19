package pb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbsim/internal/obs"
	"pbsim/internal/runner"
)

// pure lifts a closed-form response into a Response that never fails.
func pure(f func([]Level) float64) Response {
	return func(_ context.Context, levels []Level) (float64, error) {
		return f(levels), nil
	}
}

// rowCounter counts the RowFinished events of each "scope/row".
type rowCounter struct {
	obs.Nop
	mu   sync.Mutex
	seen map[string]int
}

func (c *rowCounter) RowFinished(scope string, row int, _ float64, _ time.Duration, _ int, _ bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen[fmt.Sprintf("%s/%d", scope, row)]++
}

// mustNew builds a design or fails the test.
func mustNew(t *testing.T, factors int, foldover bool) *Design {
	t.Helper()
	d, err := New(factors, foldover)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunIdentifiesSignificantFactors(t *testing.T) {
	factors := []Factor{
		{Name: "big", Low: "off", High: "on"},
		{Name: "small", Low: "off", High: "on"},
		{Name: "inert", Low: "off", High: "on"},
	}
	response := func(levels []Level) float64 {
		return 1000 + 50*float64(levels[0]) + 5*float64(levels[1])
	}
	res, err := Run(context.Background(), mustNew(t, len(factors), true), factors, pure(response), runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0] != 1 {
		t.Errorf("rank(big) = %d, want 1", res.Ranks[0])
	}
	if res.Ranks[1] != 2 {
		t.Errorf("rank(small) = %d, want 2", res.Ranks[1])
	}
	if res.Effects[2] != 0 {
		t.Errorf("effect(inert) = %g, want 0", res.Effects[2])
	}
}

func TestRunPadsWithDummies(t *testing.T) {
	factors := []Factor{{Name: "only", Low: "l", High: "h"}}
	res, err := Run(context.Background(), mustNew(t, len(factors), false), factors,
		pure(func([]Level) float64 { return 1 }), runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Factors) != res.Design.Columns {
		t.Fatalf("factors padded to %d, want %d", len(res.Factors), res.Design.Columns)
	}
	if res.Factors[0].Name != "only" {
		t.Errorf("first factor = %q", res.Factors[0].Name)
	}
	if res.Factors[1].Name != "Dummy Factor #1" || res.Factors[2].Name != "Dummy Factor #2" {
		t.Errorf("dummy names: %q, %q", res.Factors[1].Name, res.Factors[2].Name)
	}
}

func TestRunRejectsOverflow(t *testing.T) {
	d, _ := NewWithSize(4, false)
	factors := make([]Factor, 5)
	var calls atomic.Int64
	resp := pure(func([]Level) float64 { calls.Add(1); return 0 })
	if _, err := Run(context.Background(), d, factors, resp, runner.Config{}); err == nil {
		t.Error("expected error when factors exceed design columns")
	}
	if calls.Load() != 0 {
		t.Errorf("%d rows evaluated before the overflow was refused", calls.Load())
	}
}

// Run evaluates every design row exactly once at any parallelism and
// reports each row under cfg.Scope, unprefixed.
func TestRunCoversEveryRowOnce(t *testing.T) {
	d, _ := NewWithSize(12, true)
	var calls atomic.Int64
	resp := pure(func(levels []Level) float64 {
		calls.Add(1)
		s := 0.0
		for _, lv := range levels {
			s += float64(lv)
		}
		return s
	})
	for _, par := range []int{0, 1, 3, 64} {
		calls.Store(0)
		rows := &rowCounter{seen: make(map[string]int)}
		cfg := runner.Config{Parallelism: par, Scope: "only", Recorder: rows}
		res, err := Run(context.Background(), d, nil, resp, cfg)
		seen := rows.seen
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if int(calls.Load()) != d.Runs() || len(seen) != d.Runs() {
			t.Errorf("parallelism %d: %d calls, %d distinct rows reported, want %d", par, calls.Load(), len(seen), d.Runs())
		}
		for i, row := range d.Matrix {
			want := 0.0
			for _, lv := range row {
				want += float64(lv)
			}
			if got := res.Responses[i]; got != want {
				t.Errorf("parallelism %d row %d: got %g want %g", par, i, got, want)
			}
			if key := fmt.Sprintf("only/%d", i); seen[key] != 1 {
				t.Errorf("parallelism %d: %s reported %d times, want once", par, key, seen[key])
			}
		}
	}
}

func TestRunSuite(t *testing.T) {
	factors := []Factor{
		{Name: "A"}, {Name: "B"}, {Name: "C"},
	}
	// Two "benchmarks" that are sensitive to different factors.
	respA := pure(func(levels []Level) float64 { return 10 * float64(levels[0]) })
	respB := pure(func(levels []Level) float64 { return 10 * float64(levels[1]) })
	suite, err := RunSuite(context.Background(), mustNew(t, len(factors), true), factors,
		[]string{"ba", "bb"}, []Response{respA, respB}, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Results) != 2 || len(suite.RankRows) != 2 {
		t.Fatalf("suite sizes: %d results, %d rank rows", len(suite.Results), len(suite.RankRows))
	}
	if suite.RankRows[0][0] != 1 {
		t.Errorf("benchmark ba should rank factor A first, got %d", suite.RankRows[0][0])
	}
	if suite.RankRows[1][1] != 1 {
		t.Errorf("benchmark bb should rank factor B first, got %d", suite.RankRows[1][1])
	}
	// A and B each scored rank 1 once; both must precede C in the
	// sum-of-ranks order.
	posC := -1
	for i, f := range suite.Order {
		if f == 2 {
			posC = i
		}
	}
	if posC == 0 || posC == 1 {
		t.Errorf("inert factor C ordered at position %d; sums %v", posC, suite.Sums)
	}
}

func TestRunSuiteValidation(t *testing.T) {
	ctx := context.Background()
	d := mustNew(t, 1, false)
	if _, err := RunSuite(ctx, d, nil, []string{"x"}, nil, runner.Config{}); err == nil {
		t.Error("mismatched benchmark/response lengths should fail")
	}
	if _, err := RunSuite(ctx, d, []Factor{{Name: "A"}}, nil, nil, runner.Config{}); err == nil {
		t.Error("empty suite should fail")
	}
}

func TestDummyFactor(t *testing.T) {
	f := Dummy(3)
	if f.Name != "Dummy Factor #3" {
		t.Errorf("Dummy(3).Name = %q", f.Name)
	}
}
