package dist_test

// The chaos harness: a kill/restart/resume loop over a real
// Plackett-Burman campaign that must converge to byte-identical
// Table 9 output. Workers die at deterministically injected crash
// points (runner.Faults.CrashRows — the task executes fully, then the
// attempt dies at the commit boundary, exactly a kill -9 between
// computing and committing), leases expire and are stolen, shard
// ledgers are torn mid-line and joined by garbage files, and the
// merged campaign must still render the identical report a sequential
// run produces.
//
// Set CHAOS_ARTIFACTS to a directory to keep the convergence log,
// the merged result, and the rendered tables (make chaos does).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pbsim/internal/experiment"
	"pbsim/internal/obs"
	"pbsim/internal/report"
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
	"pbsim/internal/workload"
)

// chaosOptions is the shared experiment: the full X=44 foldover
// design (88 configurations — the design cannot shrink; its geometry
// is fixed by the simulator's 43 factors) over two benchmarks at a
// small instruction budget.
func chaosOptions(t *testing.T) experiment.Options {
	t.Helper()
	var ws []workload.Workload
	for _, n := range []string{"gzip", "mcf"} {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return experiment.Options{
		Instructions: 1200,
		Warmup:       600,
		Foldover:     true,
		Workloads:    ws,
	}
}

func TestChaosConvergesToSequentialTable(t *testing.T) {
	opts := chaosOptions(t)

	// Ground truth: the sequential path.
	seq, err := experiment.RunSuiteCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	const title = "Table 9 (chaos campaign)"
	want := report.RankTable(seq, title)

	// The campaign under chaos.
	dir := t.TempDir()
	man, err := experiment.CampaignManifest(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dist.Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	task, err := experiment.CampaignTask(opts, c.Manifest())
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic carnage: the first execution of these rows dies at
	// the commit boundary (per-row attempt counters are shared across
	// the two scopes, so each listed row kills a worker once).
	faults := &runner.Faults{CrashRows: map[int]int{
		0: 1, 7: 1, 23: 1, 41: 2, 60: 1, 87: 1,
	}}

	var logf *os.File
	artifacts := os.Getenv("CHAOS_ARTIFACTS")
	if artifacts != "" {
		if err := os.MkdirAll(artifacts, 0o755); err != nil {
			t.Fatal(err)
		}
		logf, err = os.Create(filepath.Join(artifacts, "convergence.log"))
		if err != nil {
			t.Fatal(err)
		}
		defer logf.Close() //pbcheck:ignore errdiscard best-effort artifact log; the test's assertions do not depend on it
	}
	logEvent := func(format string, args ...any) {
		t.Logf(format, args...)
		if logf != nil {
			fmt.Fprintf(logf, format+"\n", args...)
		}
	}

	met := obs.NewMetrics()
	deaths := 0
	const maxIncarnations = 32
	incarnation := 0
	for ; incarnation < maxIncarnations; incarnation++ {
		// Same worker ID every incarnation: the restarted "process"
		// resumes its own shard ledger (exercising torn-tail
		// truncation) and must steal back its own expired leases.
		stats, err := dist.RunWorker(context.Background(), dir, task, dist.Config{
			ID:       "chaos-w1",
			LeaseTTL: 200 * time.Millisecond,
			Poll:     20 * time.Millisecond,
			Wrap:     faults.Wrap,
			Recorder: met,
		})
		if err == nil {
			logEvent("incarnation %d: campaign complete (%d committed, %d stolen, %d passes)",
				incarnation, stats.Committed, stats.Stolen, stats.Passes)
			break
		}
		if !errors.Is(err, runner.ErrCrash) {
			t.Fatalf("incarnation %d: unexpected death: %v", incarnation, err)
		}
		deaths++
		logEvent("incarnation %d: killed at injected crash point after %d commits (%d stolen); restarting",
			incarnation, stats.Committed, stats.Stolen)
		// Tear the shard's tail between incarnations: the "machine"
		// died mid-append too.
		if incarnation == 1 {
			shard := filepath.Join(dir, "shards", "chaos-w1.jsonl")
			f, err := os.OpenFile(shard, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"fp":"torn mid-wri`); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			logEvent("incarnation %d: tore the shard ledger tail", incarnation)
		}
		// A lease whose owner died stays on disk until its TTL
		// passes; wait it out like a restarted supervisor would.
		time.Sleep(250 * time.Millisecond)
	}
	if incarnation == maxIncarnations {
		t.Fatalf("campaign did not converge within %d incarnations", maxIncarnations)
	}
	if deaths == 0 {
		t.Fatal("chaos harness injected no deaths; the test proved nothing")
	}

	// A garbage shard joins the directory: merge must quarantine it
	// without losing the campaign.
	junk := filepath.Join(dir, "shards", "zz-junk.jsonl")
	if err := os.WriteFile(junk, []byte("i am not a ledger\nstill not\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := c.Merge(met)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("chaos campaign incomplete: missing %v", res.Missing)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("Quarantined = %+v, want exactly the junk shard", res.Quarantined)
	}
	logEvent("merge: %d committed, %d duplicates proven bit-identical, %d quarantined",
		res.Committed, res.Duplicates, len(res.Quarantined))

	suite, err := experiment.SuiteFromMerge(opts, res)
	if err != nil {
		t.Fatal(err)
	}
	got := report.RankTable(suite, title)
	if got != want {
		t.Errorf("chaos table diverged from sequential run:\n--- sequential ---\n%s\n--- chaos ---\n%s", want, got)
	}
	logEvent("convergence: %d deaths, table byte-identical to sequential run: %v", deaths, got == want)

	if artifacts != "" {
		merged := filepath.Join(artifacts, "merged-table.txt")
		if err := os.WriteFile(merged, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(filepath.Join(dir, "shards", "chaos-w1.jsonl")); err == nil {
			if err := os.WriteFile(filepath.Join(artifacts, "merged-ledger.jsonl"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestChaosMultiWorkerSpeedup runs the same campaign with several
// concurrent in-process workers — no faults this time — and checks
// both convergence and that the work actually spread across shards.
func TestChaosMultiWorkerSpeedup(t *testing.T) {
	opts := chaosOptions(t)
	dir := t.TempDir()
	man, err := experiment.CampaignManifest(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dist.Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	task, err := experiment.CampaignTask(opts, c.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errs := make(chan error, workers)
	shards := make([]dist.WorkerStats, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			stats, err := dist.RunWorker(context.Background(), dir, task, dist.Config{
				ID:       fmt.Sprintf("mw%d", w),
				LeaseTTL: 2 * time.Second,
			})
			shards[w] = stats
			errs <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("multi-worker campaign incomplete: %v", res.Missing)
	}
	spread := 0
	for w := 0; w < workers; w++ {
		if shards[w].Committed > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("work did not spread: per-worker commits %+v", shards)
	}
	if _, err := experiment.SuiteFromMerge(opts, res); err != nil {
		t.Fatal(err)
	}
}
