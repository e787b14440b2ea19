// Example resilientrun demonstrates the fault-tolerant experiment
// runner on a small Plackett-Burman suite. It runs the same
// three-benchmark experiment twice:
//
//  1. Under heavy injected faults — seeded transient failures on ~15%
//     of attempts, a row that panics on its first attempt, a row that
//     twice "dies" at the commit boundary (the CrashRows injector the
//     distributed chaos harness also uses), and a row whose first
//     attempt exceeds the per-row timeout — and shows the suite
//     completing anyway via retries with capped backoff.
//
//  2. Run over a campaign directory (internal/runner/dist) whose worker
//     dies mid-suite at an injected crash point, then restarted: the
//     restarted run re-simulates only the units the dead worker never
//     committed and reproduces the identical sum-of-ranks ordering.
//
// Both phases run under the observability layer (internal/obs): the
// fault-injected suite aggregates retry/panic/timeout counts through
// an obs.Metrics recorder, and the resumed suite additionally
// journals every event to a metrics JSONL whose resumed-vs-simulated
// accounting is verified against the crashed run — so this example
// doubles as an integration smoke test of the obs layer.
//
// Run it with:
//
//	go run ./examples/resilientrun
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "resilientrun: error: %v\n", err)
		os.Exit(1)
	}
}

// The suite: five factors, three synthetic "benchmarks" whose
// deterministic responses weight the factors differently.
func suite() ([]pb.Factor, []string, []pb.Response) {
	factors := []pb.Factor{
		{Name: "ROB Entries", Low: "8", High: "64"},
		{Name: "L2 Cache Size", Low: "256 KB", High: "8 MB"},
		{Name: "Memory Latency", Low: "50", High: "200"},
		{Name: "Branch Predictor", Low: "2K", High: "16K"},
		{Name: "Int ALUs", Low: "1", High: "4"},
	}
	benchmarks := []string{"synth-int", "synth-mem", "synth-fp"}
	weights := [][]float64{
		{40, 5, 3, 25, 30},
		{8, 50, 45, 4, 2},
		{30, 12, 10, 6, 20},
	}
	responses := make([]pb.Response, len(benchmarks))
	for bi := range benchmarks {
		w := weights[bi]
		//pbcheck:ignore ctxflow the synthetic response is pure arithmetic with nothing cancellable; ctx is unused by design
		responses[bi] = func(_ context.Context, levels []pb.Level) (float64, error) {
			cycles := 10000.0
			for j, lv := range levels {
				if j < len(w) {
					cycles -= w[j] * float64(lv) * math.Sqrt(float64(j)+1)
				}
			}
			return cycles, nil
		}
	}
	return factors, benchmarks, responses
}

func run() (err error) {
	factors, benchmarks, responses := suite()

	fmt.Println("=== Phase 1: suite under injected faults ===")
	faults := &runner.Faults{
		Seed:      2026,
		FailProb:  0.15,                                             // seeded transient failures
		PanicRows: map[int]int{3: 1},                                // row 3 panics once
		CrashRows: map[int]int{7: 2},                                // row 7 dies twice at the commit boundary
		SlowRows:  map[int]time.Duration{5: 300 * time.Millisecond}, // row 5's first attempt hangs
	}
	metrics := obs.NewMetrics()
	retries := &retryLog{}
	design, err := pb.New(len(factors), true)
	if err != nil {
		return err
	}
	cfg := runner.Config{
		Retries:    5,
		Timeout:    100 * time.Millisecond, // row 5's first attempt times out
		Backoff:    5 * time.Millisecond,
		BackoffCap: 50 * time.Millisecond,
		Wrap:       faults.Wrap,
		Recorder:   obs.Multi(metrics, retries),
	}
	faulted, err := pb.RunSuite(context.Background(), design, factors, benchmarks, responses, cfg)
	if err != nil {
		return fmt.Errorf("faulted suite: %w", err)
	}
	retries.print()
	fmt.Printf("suite completed despite %d injected-fault attempts\n", faults.Injected())
	fmt.Printf("the metrics agree: %d attempts, %d retries, %d panics, %d timeouts\n\n",
		metrics.Attempts.Value(), metrics.Retries.Value(), metrics.Panics.Value(),
		metrics.Timeouts.Value())
	fmt.Fprintf(os.Stderr, "phase 1 ran on at most %d concurrent workers\n", metrics.Workers.Peak())

	fmt.Println("=== Phase 2: crash mid-suite, then resume from the campaign directory ===")
	dir, err := os.MkdirTemp("", "resilientrun")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //pbcheck:ignore errdiscard best-effort temp-dir cleanup; nothing actionable on failure
	campaign := filepath.Join(dir, "campaign")
	man := dist.Manifest{Fingerprint: "example"}
	index := make(map[string]int, len(benchmarks))
	for bi, b := range benchmarks {
		man.Scopes = append(man.Scopes, dist.ScopeSpec{Name: b, Rows: design.Runs()})
		index[b] = bi
	}
	if _, err := dist.Create(campaign, man); err != nil {
		return err
	}
	var simulated atomic.Int64
	task := func(ctx context.Context, scope string, row int) (float64, error) {
		simulated.Add(1)
		return responses[index[scope]](ctx, design.Row(row))
	}

	// The "crashing" first run: its worker dies at the commit boundary
	// of the first unit of row 5, leaving every earlier unit committed
	// and its lease on the unit it was running.
	const ttl = 100 * time.Millisecond
	crash := &runner.Faults{CrashRows: map[int]int{5: 1}}
	_, err = dist.Run(context.Background(), campaign, task, 1, dist.Config{
		ID: "first", LeaseTTL: ttl, Runner: runner.Config{Wrap: crash.Wrap},
	})
	if !errors.Is(err, runner.ErrCrash) {
		return fmt.Errorf("crashing run: %v, want an injected crash", err)
	}
	fmt.Printf("first run died as planned: %v\n", err)
	// Every unit it simulated was committed except the one it died on.
	committed := simulated.Load() - 1

	// The restarted run: same campaign directory, healthy workers, and
	// the full observability stack — aggregate metrics plus a JSONL
	// event journal keyed by the experiment fingerprint.
	simulated.Store(0)
	metricsPath := filepath.Join(dir, "metrics.jsonl")
	sink, err := obs.OpenJSONL(metricsPath)
	if err != nil {
		return err
	}
	rmetrics := obs.NewMetrics()
	rec := obs.Multi(rmetrics, sink)
	rec.SuiteStarted("example", len(benchmarks), design.Runs())
	// The restarted workers keep dist's default lease TTL. The dead
	// worker's short lease still expires at once, but a restarted worker
	// stalled on a loaded machine must not look dead to its sibling,
	// which would steal its unit and simulate it twice.
	res, err := dist.Run(context.Background(), campaign, task, 2, dist.Config{ID: "restart", Recorder: rec})
	if err != nil {
		return fmt.Errorf("resumed suite: %w", err)
	}
	vecs := make([][]float64, len(benchmarks))
	for bi, b := range benchmarks {
		if vecs[bi], err = res.Responses(b); err != nil {
			return err
		}
	}
	resumed, err := pb.SuiteFromResponses(design, factors, benchmarks, vecs)
	if err != nil {
		return err
	}
	total := design.Runs() * len(benchmarks)
	fmt.Printf("resume restored %d committed units and simulated only %d of %d\n",
		committed, simulated.Load(), total)

	// The metrics must tell the same story as the crashed run and the
	// counting task — this is the obs layer's integration check.
	summary := rmetrics.Summary("resilientrun")
	if summary.RowsResumed != committed || summary.RowsSimulated != simulated.Load() || committed+simulated.Load() != int64(total) {
		return fmt.Errorf("metrics disagree with ground truth: %d resumed / %d simulated vs %d / %d of %d",
			summary.RowsResumed, summary.RowsSimulated, committed, simulated.Load(), total)
	}
	sink.WriteSummary(summary)
	if err := sink.Close(); err != nil {
		return err
	}
	hits, finished, err := countEvents(metricsPath)
	if err != nil {
		return err
	}
	if hits != int(summary.RowsResumed) || finished != int(summary.RowsSimulated) {
		return fmt.Errorf("metrics JSONL disagrees: %d checkpoint_hit / %d row_finished events vs %d / %d",
			hits, finished, summary.RowsResumed, summary.RowsSimulated)
	}
	fmt.Printf("metrics JSONL agrees: %d checkpoint_hit + %d row_finished events\n", hits, finished)
	// The summary's times, lease counts and peak workers depend on the
	// machine and the scheduler, so it goes to stderr: stdout is the
	// same on every run.
	fmt.Fprint(os.Stderr, "\n"+summary.Table())

	// The resumed ordering must equal the faulted (but complete) run's.
	fmt.Println("\nsum-of-ranks ordering (resumed run):")
	for pos, f := range resumed.Order {
		same := "=="
		if resumed.Order[pos] != faulted.Order[pos] {
			same = "!=" // never happens: both runs are exact
		}
		fmt.Printf("  %d. %-18s sum %2d  (%s fault-injected run)\n",
			pos+1, resumed.Factors[f].Name, resumed.Sums[f], same)
	}
	return nil
}

// retryLog collects one line per scheduled retry. Concurrent workers
// schedule retries in whatever order they run, so print writes the
// lines sorted.
type retryLog struct {
	obs.Nop
	mu    sync.Mutex
	lines []string
}

func (l *retryLog) RowRetried(scope string, row, attempt int, delay time.Duration, err error) {
	line := fmt.Sprintf("  retry %s row %d (attempt %d, backoff %v): %v\n", scope, row, attempt, delay, err)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, line)
}

// print writes the collected lines. It is called once the suite has
// returned, when no worker records any more.
func (l *retryLog) print() {
	sort.Strings(l.lines)
	for _, line := range l.lines {
		fmt.Print(line)
	}
}

// countEvents reads a metrics JSONL back and tallies the two row
// outcomes the resume accounting cares about.
func countEvents(path string) (checkpointHits, rowsFinished int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer obs.FoldClose(&err, f)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, 0, fmt.Errorf("bad metrics line %q: %w", sc.Text(), err)
		}
		switch ev.T {
		case "checkpoint_hit":
			checkpointHits++
		case "row_finished":
			rowsFinished++
		}
	}
	return checkpointHits, rowsFinished, sc.Err()
}
