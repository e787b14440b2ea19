// Example resilientrun demonstrates the fault-tolerant experiment
// runner on a small Plackett-Burman suite of three benchmarks:
//
//  1. One row panics (an injected fault). The runner attempts every
//     row exactly once, recovers the panic into that row's error, and
//     completes every other row of the benchmark; the suite fails with
//     a *runner.RunError naming the row, never with a silent NaN.
//
//  2. Run over a campaign directory (internal/runner/dist) whose worker
//     dies mid-suite at an injected crash point, then restarted: the
//     restarted run re-simulates only the units the dead worker never
//     committed and reproduces the sum-of-ranks ordering of a clean
//     in-memory run.
//
// Both phases run under the observability layer (internal/obs): the
// faulted suite's simulated rows, failures and panics are counted by an
// obs.Metrics recorder, and the resumed suite additionally journals
// every event to a metrics JSONL whose resumed-vs-simulated accounting
// is verified against the crashed run — so this example doubles as an
// integration smoke test of the obs layer. It exits 1 when any of its
// checks fails, and its stdout is the same on every run.
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

	fmt.Println("=== Phase 1: one row panics ===")
	design, err := pb.New(len(factors), true)
	if err != nil {
		return err
	}
	const panicRow = 3
	faults := &runner.Faults{PanicRows: map[int]int{panicRow: 1}}
	metrics := obs.NewMetrics()
	cfg := runner.Config{Wrap: faults.Wrap, Recorder: metrics}
	_, err = pb.RunSuite(context.Background(), design, factors, benchmarks, responses, cfg)
	var runErr *runner.RunError
	var pe *runner.PanicError
	if !errors.As(err, &runErr) || len(runErr.Rows) != 1 || runErr.Rows[0].Row != panicRow || !errors.As(err, &pe) {
		return fmt.Errorf("faulted suite: %v, want a *runner.RunError naming row %d's panic", err, panicRow)
	}
	fmt.Printf("suite failed as planned: %v\n", err)
	// The suite stops at the benchmark with the failed row, after every
	// one of that benchmark's rows was attempted exactly once.
	runs := int64(design.Runs())
	// Each row is attempted once, so the attempts are the simulated
	// rows plus the failed one.
	attempts := metrics.RowsSimulated.Value() + metrics.RowsFailed.Value()
	if metrics.RowsSimulated.Value() != runs-1 || metrics.RowsFailed.Value() != 1 ||
		metrics.Panics.Value() != 1 || int64(faults.Injected()) != runs {
		return fmt.Errorf("phase 1 metrics disagree: %d simulated, %d failed, %d panics, %d executions; want %d, 1, 1, %d",
			metrics.RowsSimulated.Value(), metrics.RowsFailed.Value(),
			metrics.Panics.Value(), faults.Injected(), runs-1, runs)
	}
	fmt.Printf("the metrics agree: %d attempts, %d rows simulated, %d failed, %d panics\n\n",
		attempts, metrics.RowsSimulated.Value(), metrics.RowsFailed.Value(), metrics.Panics.Value())
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
		ID: "first", LeaseTTL: ttl, Wrap: crash.Wrap,
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

	// The resumed ordering must equal a clean in-memory run's.
	clean, err := pb.RunSuite(context.Background(), design, factors, benchmarks, responses, runner.Config{})
	if err != nil {
		return fmt.Errorf("clean suite: %w", err)
	}
	fmt.Println("\nsum-of-ranks ordering (resumed run):")
	for pos, f := range resumed.Order {
		if resumed.Order[pos] != clean.Order[pos] || resumed.Sums[f] != clean.Sums[f] {
			return fmt.Errorf("resumed ordering differs from the clean run at position %d", pos+1)
		}
		fmt.Printf("  %d. %-18s sum %2d  (== clean in-memory run)\n",
			pos+1, resumed.Factors[f].Name, resumed.Sums[f])
	}
	return nil
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
