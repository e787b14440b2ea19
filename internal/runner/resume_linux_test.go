package runner_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"pbsim/internal/runner/dist"
)

// A checkpoint whose disk stops accepting writes must fail the run:
// the deferred write error is reported, the row is not counted as
// committed, and a later run evaluates it again.
func TestCheckpointCloseReportsDeferredWriteError(t *testing.T) {
	const n = 3
	ctx, cancel := withDeadline()
	defer cancel()
	dir := createCampaign(t, n)
	shard, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	shard = filepath.Join(shard, "shards", "w.jsonl")

	// While the first row runs, swap a read-only descriptor in under the
	// open shard ledger, the stand-in for a disk that stopped accepting
	// writes. The descriptor number stays in use, so nothing else in the
	// process can be handed it.
	sabotaged := false
	task := func(_ context.Context, _ string, i int) (float64, error) {
		if !sabotaged {
			sabotaged = true
			sabotageWrites(t, shard)
		}
		return float64(i) / 3, nil
	}
	stats, err := dist.RunWorker(ctx, dir, task, dist.Config{ID: "w"})
	if !errors.Is(err, syscall.EBADF) {
		t.Fatalf("run over a dead shard: err = %v, want the write error", err)
	}
	if stats.Committed != 0 {
		t.Errorf("run over a dead shard counted %d commits", stats.Committed)
	}
	res, err := dist.MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 0 {
		t.Errorf("merge found %d commits in a shard that took no writes", res.Committed)
	}

	healthy := func(_ context.Context, _ string, i int) (float64, error) { return float64(i) / 3, nil }
	if stats, err = dist.RunWorker(ctx, dir, healthy, dist.Config{ID: "w"}); err != nil {
		t.Fatal(err)
	}
	if stats.Committed != n {
		t.Errorf("restarted run committed %d rows, want %d", stats.Committed, n)
	}
	res, err = dist.MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("after restart: missing %v", res.Missing)
	}
	for i, got := range res.Values["s"] {
		if want := float64(i) / 3; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("row %d = %v, want %v", i, got, want)
		}
	}
}

// sabotageWrites finds this process's one open descriptor on path and
// replaces it with a read-only one, so every later write through it
// fails with EBADF.
func sabotageWrites(t *testing.T, path string) {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for _, e := range fds {
		if link, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && link == path {
			if target >= 0 {
				t.Fatalf("more than one descriptor open on %s", path)
			}
			if target, err = strconv.Atoi(e.Name()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if target < 0 {
		t.Fatalf("no descriptor open on %s", path)
	}
	ro, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := syscall.Dup3(int(ro.Fd()), target, syscall.O_CLOEXEC); err != nil {
		t.Fatal(err)
	}
}
