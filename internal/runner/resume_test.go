package runner_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"pbsim/internal/obs"
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
)

// A checkpoint is a dist campaign directory; these tests pin the
// resume contract of an evaluation from the runner's side of it.

var errInterrupted = errors.New("interrupted")

// withDeadline bounds a test's campaign runs: a worker that never sees
// its commits would otherwise poll forever.
func withDeadline() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), time.Minute)
}

func createCampaign(t *testing.T, rows int) string {
	t.Helper()
	dir := t.TempDir()
	man := dist.Manifest{Fingerprint: "fp", Scopes: []dist.ScopeSpec{{Name: "s", Rows: rows}}}
	if _, err := dist.Create(dir, man); err != nil {
		t.Fatal(err)
	}
	return dir
}

// Resuming from a checkpoint must skip completed rows entirely and
// reproduce the response vector of an uncheckpointed Evaluate bit for
// bit.
func TestEvaluateResumesFromCheckpoint(t *testing.T) {
	const n, cut = 30, 20
	value := func(i int) float64 { return math.Sqrt(float64(i)) * math.Pi }
	ctx, cancel := withDeadline()
	defer cancel()

	full, err := runner.Evaluate(ctx, n, func(_ context.Context, i int) (float64, error) {
		return value(i), nil
	}, runner.Config{Parallelism: 4, Scope: "s"})
	if err != nil {
		t.Fatal(err)
	}

	// The first run is interrupted: only rows below cut get committed.
	dir := createCampaign(t, n)
	interrupted := func(_ context.Context, _ string, i int) (float64, error) {
		if i >= cut {
			return 0, errInterrupted
		}
		return value(i), nil
	}
	if _, err := dist.Run(ctx, dir, interrupted, 4, dist.Config{ID: "first"}); !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted run: err = %v, want %v", err, errInterrupted)
	}

	var calls atomic.Int64
	counting := func(_ context.Context, _ string, i int) (float64, error) {
		calls.Add(1)
		return value(i), nil
	}
	m := obs.NewMetrics()
	res, err := dist.Run(ctx, dir, counting, 4, dist.Config{ID: "second", Recorder: m})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n-cut {
		t.Errorf("resumed run evaluated %d rows, want the %d uncommitted ones", calls.Load(), n-cut)
	}
	if r := m.RowsResumed.Value(); r != cut {
		t.Errorf("resumed run restored %d rows, want %d", r, cut)
	}
	resumed, err := res.Responses("s")
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if math.Float64bits(full[i]) != math.Float64bits(resumed[i]) {
			t.Errorf("row %d differs after resume: %v vs %v", i, full[i], resumed[i])
		}
	}
}

// A crash mid-write leaves half a record at the end of a shard. Merge
// must load the intact rows and not the torn one, and a worker resuming
// on that shard must evaluate the torn row again and commit it cleanly.
func TestCheckpointToleratesTornLine(t *testing.T) {
	const n = 3
	ctx, cancel := withDeadline()
	defer cancel()
	dir := createCampaign(t, n)
	value := func(i int) float64 { return float64(10 + i) }
	task := func(_ context.Context, _ string, i int) (float64, error) {
		if i == 2 {
			return 0, errInterrupted
		}
		return value(i), nil
	}
	if _, err := dist.RunWorker(ctx, dir, task, dist.Config{ID: "w"}); !errors.Is(err, errInterrupted) {
		t.Fatalf("first run: err = %v, want %v", err, errInterrupted)
	}
	// Simulate a crash mid-write: append half a record.
	f, err := os.OpenFile(filepath.Join(dir, "shards", "w.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"fp","scope":"s","row":2,"val`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := dist.MergeDir(dir, nil)
	if err != nil {
		t.Fatalf("torn line broke reload: %v", err)
	}
	if res.Committed != 2 || len(res.Quarantined) != 0 {
		t.Errorf("loaded %d rows (quarantined %v), want the 2 intact ones", res.Committed, res.Quarantined)
	}
	if len(res.Missing) != 1 || res.Missing[0] != (dist.Unit{Scope: "s", Row: 2}) {
		t.Errorf("missing %v, want only the torn row s/2", res.Missing)
	}

	healthy := func(_ context.Context, _ string, i int) (float64, error) { return value(i), nil }
	stats, err := dist.RunWorker(ctx, dir, healthy, dist.Config{ID: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 1 {
		t.Errorf("resumed worker committed %d rows, want only the torn one", stats.Committed)
	}
	res, err = dist.MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || len(res.Quarantined) != 0 {
		t.Fatalf("after resume: missing %v, quarantined %v", res.Missing, res.Quarantined)
	}
	for i, got := range res.Values["s"] {
		if math.Float64bits(got) != math.Float64bits(value(i)) {
			t.Errorf("row %d = %v, want %v", i, got, value(i))
		}
	}
}
