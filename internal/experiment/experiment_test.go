package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbsim/internal/enhance"
	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
	"pbsim/internal/sampling"
	"pbsim/internal/workload"
)

// eval runs resp on one row, failing the test on an error.
func eval(t *testing.T, resp pb.Response, levels []pb.Level) float64 {
	t.Helper()
	v, err := resp(context.Background(), levels)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestResponseDeterministic(t *testing.T) {
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	resp := Response(w, 2000, 4000, enhance.Spec{})
	design, err := pb.New(41, false)
	if err != nil {
		t.Fatal(err)
	}
	row := design.Row(0)
	if a, b := eval(t, resp, row), eval(t, resp, row); a != b {
		t.Errorf("response not deterministic: %g vs %g", a, b)
	}
	// The 4-wide machine cannot beat IPC 4.
	if y := eval(t, resp, row); y < 1000 {
		t.Errorf("cycles = %g, below the 4-wide bound", y)
	}
}

func TestResponseDependsOnLevels(t *testing.T) {
	w, _ := workload.ByName("mcf")
	resp := Response(w, 2000, 4000, enhance.Spec{})
	low := make([]pb.Level, 43)
	high := make([]pb.Level, 43)
	for i := range low {
		low[i] = pb.Low
		high[i] = pb.High
	}
	yl, yh := eval(t, resp, low), eval(t, resp, high)
	if yh >= yl {
		t.Errorf("all-high (%g cycles) should beat all-low (%g)", yh, yl)
	}
}

func TestRunSuiteSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full 88-configuration suite in -short mode")
	}
	ws := []workload.Workload{}
	for _, n := range []string{"gzip", "mcf"} {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	suite, err := RunSuite(Options{
		Instructions: 3000,
		Warmup:       2000,
		Foldover:     true,
		Workloads:    ws,
	})
	if err != nil {
		t.Fatal(err)
	}
	if suite.Design.X != 44 || suite.Design.Runs() != 88 {
		t.Errorf("design %dx%d, want the paper's X=44 foldover", suite.Design.X, suite.Design.Runs())
	}
	if len(suite.RankRows) != 2 {
		t.Fatalf("rank rows = %d", len(suite.RankRows))
	}
	if len(suite.Sums) != 43 {
		t.Fatalf("sums = %d", len(suite.Sums))
	}
	// mcf is the most memory-bound workload: its top factors must
	// include the L2/memory parameters, and the dummy factors must
	// rank in the bottom half.
	names := map[string]int{}
	for i, f := range suite.Factors {
		names[f.Name] = i
	}
	mcfRanks := suite.RankRows[1]
	memTop := false
	for _, n := range []string{"L2 Cache Size", "Memory Latency First", "L2 Cache Latency"} {
		if mcfRanks[names[n]] <= 5 {
			memTop = true
		}
	}
	if !memTop {
		t.Errorf("mcf top factors miss the memory system: L2size=%d memlat=%d L2lat=%d",
			mcfRanks[names["L2 Cache Size"]], mcfRanks[names["Memory Latency First"]], mcfRanks[names["L2 Cache Latency"]])
	}
	for _, bench := range suite.RankRows {
		for _, dummy := range []string{"Dummy Factor #1", "Dummy Factor #2"} {
			if r := bench[names[dummy]]; r <= 5 {
				t.Errorf("%s ranks %d: dummy factors must not be top-5", dummy, r)
			}
		}
	}
}

func TestResponsePropagatesErrors(t *testing.T) {
	// A workload whose generator cannot be built (zero-value Params
	// fail validation) must surface an error naming the benchmark —
	// the historical behavior was a panic that killed the whole suite.
	bad := workload.Workload{Name: "broken"}
	resp := Response(bad, 0, 1000, enhance.Spec{})
	_, err := resp(context.Background(), make([]pb.Level, 43))
	if err == nil {
		t.Fatal("invalid workload accepted")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not name the workload", err)
	}

	// An enhancement whose table cannot be built is also an error,
	// not a panic.
	w, _ := workload.ByName("gzip")
	resp = Response(w, 0, 1000, enhance.Spec{Mechanism: enhance.MechPrecompute})
	if _, err := resp(context.Background(), make([]pb.Level, 43)); err == nil || !strings.Contains(err.Error(), "table size 0") {
		t.Errorf("enhancement error not propagated: %v", err)
	}

	// A whole suite over the broken workload fails with an aggregate
	// error instead of dying.
	_, err = RunSuite(Options{
		Instructions: 1000,
		Workloads:    []workload.Workload{bad},
	})
	var runErr *runner.RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("suite over broken workload: want *runner.RunError, got %v", err)
	}
}

func TestRunSuiteCancellation(t *testing.T) {
	ws := []workload.Workload{}
	for _, n := range []string{"gzip", "mcf"} {
		w, _ := workload.ByName(n)
		ws = append(ws, w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first row
	_, err := RunSuiteCtx(ctx, Options{
		Instructions: 1000,
		Warmup:       0,
		Foldover:     true,
		Workloads:    ws,
	})
	if !runner.Cancelled(err) {
		t.Fatalf("want cancellation error, got %v", err)
	}
}

// interrupter cancels the run once the given number of rows has
// finished.
type interrupter struct {
	obs.Nop
	rows   int64
	done   atomic.Int64
	cancel context.CancelFunc
}

func (i *interrupter) RowFinished(string, int, float64, time.Duration, int, bool) {
	if i.done.Add(1) == i.rows {
		i.cancel()
	}
}

// resumeCheckpoint interrupts a checkpointed run of opts after a few
// rows, resumes it through RunSuiteCtx, and returns the resumed suite
// after checking the Recorder saw every unit committed before the
// interruption exactly once as restored (RowFinished with
// fromCheckpoint=true), every other one exactly once as simulated,
// and counted the restored ones in RowsResumed.
func resumeCheckpoint(t *testing.T, opts Options) *pb.Suite {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Recorder = &interrupter{rows: 10, cancel: cancel}
	if _, err := RunSuiteCtx(ctx, opts); !runner.Cancelled(err) {
		t.Fatalf("interrupted run = %v, want cancellation", err)
	}
	camp, err := dist.Open(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	before, err := camp.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.Committed == 0 || before.Complete() {
		t.Fatalf("interrupted campaign committed %d units, want a partial campaign", before.Committed)
	}
	rows := &rowEvents{}
	m := obs.NewMetrics()
	opts.Recorder = obs.Multi(rows, m)
	suite, err := RunSuiteCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	man, err := CampaignManifest(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range man.Units() {
		restored := !math.IsNaN(before.Values[u.Scope][u.Row])
		if key := fmt.Sprintf("%s/%s/%d/%t", opts.Enhance, u.Scope, u.Row, restored); rows.seen[key] != 1 {
			t.Errorf("%s reported %d times, want once", key, rows.seen[key])
		}
	}
	if len(rows.seen) != man.TotalRows() {
		t.Errorf("resume reported %d distinct rows, want %d: %v", len(rows.seen), man.TotalRows(), rows.seen)
	}
	if r := m.RowsResumed.Value(); r != int64(before.Committed) {
		t.Errorf("RowsResumed = %d, want the %d committed units", r, before.Committed)
	}
	return suite
}

// A -checkpoint suite interrupted and rerun through RunSuiteCtx by
// several in-process workers reports each restored row once, not once
// per worker.
func TestRunSuiteCtxReportsRestoredRowsOnce(t *testing.T) {
	opts := distOptions(t)
	opts.Parallelism = 3
	opts.Checkpoint = t.TempDir()
	resumeCheckpoint(t, opts)
}

// requireBitIdentical fails unless both suites carry the same response
// bits.
func requireBitIdentical(t *testing.T, want, got *pb.Suite) {
	t.Helper()
	for bi := range want.Results {
		for i, w := range want.Results[bi].Responses {
			if g := got.Results[bi].Responses[i]; math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s row %d: %x after resume, want %x", want.Benchmarks[bi], i, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// An interrupted checkpointed suite, full or sampled, resumes to the
// responses of an uninterrupted in-memory run, bit for bit.
func TestRunSuiteCheckpointResume(t *testing.T) {
	w, _ := workload.ByName("gzip")
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"full", Options{Instructions: 2000, Warmup: 1000}},
		{"sampled", Options{
			Instructions: 4000,
			Warmup:       1000,
			Sampling:     &sampling.Spec{Fraction: 0.25, RegionWarmup: -1, FuncWarmup: 2000, Seed: 9},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Workloads = []workload.Workload{w}
			want, err := RunSuite(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Checkpoint = filepath.Join(t.TempDir(), "campaign")
			requireBitIdentical(t, want, resumeCheckpoint(t, opts))
		})
	}
}

// A Table 12 suite (an enhancement) resumes from its campaign like
// any other.
func TestCheckpointShortcutSuiteResumes(t *testing.T) {
	w, _ := workload.ByName("gzip")
	opts := Options{
		Instructions: 2000,
		Warmup:       1000,
		Workloads:    []workload.Workload{w},
		Enhance:      enhance.Spec{Mechanism: enhance.MechPrecompute, TableSize: 128},
	}
	want, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = filepath.Join(t.TempDir(), "campaign")
	requireBitIdentical(t, want, resumeCheckpoint(t, opts))
}

// Reusing a campaign directory under a changed budget is refused,
// naming both fingerprints, instead of simulating into it.
func TestCheckpointRefusesChangedBudget(t *testing.T) {
	w, _ := workload.ByName("gzip")
	opts := Options{
		Instructions: 2000,
		Warmup:       1000,
		Workloads:    []workload.Workload{w},
		Checkpoint:   t.TempDir(),
	}
	man, err := CampaignManifest(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.Create(opts.Checkpoint, man); err != nil {
		t.Fatal(err)
	}
	opts.Instructions = 3000
	changed, err := CampaignManifest(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSuite(opts)
	if err == nil || !strings.Contains(err.Error(), man.Fingerprint) || !strings.Contains(err.Error(), changed.Fingerprint) {
		t.Fatalf("changed budget = %v, want a refusal naming %q and %q", err, man.Fingerprint, changed.Fingerprint)
	}
}

func TestRunSuiteDefaults(t *testing.T) {
	// Option defaulting: explicit zero instructions selects the
	// default, negative warmup selects the default warmup.
	if _, err := RunSuite(Options{Workloads: []workload.Workload{}}); err == nil {
		t.Error("empty workload list accepted")
	}
}

func TestResponseWithShortcut(t *testing.T) {
	w, _ := workload.ByName("gzip")
	base := Response(w, 2000, 5000, enhance.Spec{})
	enhanced := Response(w, 2000, 5000, enhance.Spec{Mechanism: enhance.MechPrecompute, TableSize: 128})
	levels := make([]pb.Level, 43)
	for i := range levels {
		levels[i] = pb.Low
	}
	yb, ye := eval(t, base, levels), eval(t, enhanced, levels)
	if ye >= yb {
		t.Errorf("precomputation did not speed up the run: %g vs %g", ye, yb)
	}
}

func TestTable9ShapeFullSuite(t *testing.T) {
	// Full 13-benchmark, 88-configuration experiment at reduced scale:
	// the qualitative Table 9 shape must hold.
	if testing.Short() {
		t.Skip("full-suite shape test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("13x88 full-scale suite exceeds the race detector's time budget; " +
			"the suite's concurrency is covered by the runner, pb, and dist race tests")
	}
	suite, err := RunSuite(Options{
		Instructions: 20000,
		Warmup:       10000,
		Foldover:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, f := range suite.Order {
		pos[suite.Factors[f].Name] = i + 1
	}
	// The paper's strongest conclusions, which must survive the
	// synthetic substitution:
	// 1. ROB and L2 latency are top-5 overall.
	for _, name := range []string{"Reorder Buffer Entries", "L2 Cache Latency"} {
		if pos[name] > 5 {
			t.Errorf("%s at position %d, want top-5", name, pos[name])
		}
	}
	// 2. The memory-system core (L2 size, memory latency) is top-8.
	for _, name := range []string{"L2 Cache Size", "Memory Latency First"} {
		if pos[name] > 8 {
			t.Errorf("%s at position %d, want top-8", name, pos[name])
		}
	}
	// 3. Dummy factors carry no real effect: never top-15.
	for _, name := range []string{"Dummy Factor #1", "Dummy Factor #2"} {
		if pos[name] <= 15 {
			t.Errorf("%s at position %d, dummies must not look significant", name, pos[name])
		}
	}
	// 4. Rare-operation latencies and the RAS sit in the bottom half.
	for _, name := range []string{"FP Square Root Latency", "Return Address Stack Entries", "Memory Ports"} {
		if pos[name] <= 21 {
			t.Errorf("%s at position %d, want bottom half", name, pos[name])
		}
	}
	// 5. Per-benchmark fingerprints: the memory-bound benchmarks rank
	// L2 size first or second; twolf does not.
	names := map[string]int{}
	for i, f := range suite.Factors {
		names[f.Name] = i
	}
	bench := map[string]int{}
	for i, b := range suite.Benchmarks {
		bench[b] = i
	}
	for _, b := range []string{"art", "mcf"} {
		if r := suite.RankRows[bench[b]][names["L2 Cache Size"]]; r > 2 {
			t.Errorf("%s: L2 size rank %d, want <= 2", b, r)
		}
	}
	if r := suite.RankRows[bench["twolf"]][names["L2 Cache Size"]]; r <= 5 {
		t.Errorf("twolf: L2 size rank %d, its working set fits any L2", r)
	}
	// 6. gzip is compute-bound: memory latency is not in its top 15.
	if r := suite.RankRows[bench["gzip"]][names["Memory Latency First"]]; r <= 15 {
		t.Errorf("gzip: memory latency rank %d, want > 15", r)
	}
}

func TestCSVExports(t *testing.T) {
	factors := []pb.Factor{{Name: "A"}, {Name: "B"}}
	resp := func(_ context.Context, l []pb.Level) (float64, error) { return 100 + 10*float64(l[0]), nil }
	design, err := pb.New(len(factors), true)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := pb.RunSuite(context.Background(), design, factors, []string{"w1"}, []pb.Response{resp}, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ranks strings.Builder
	if err := WriteRanksCSV(&ranks, suite); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(ranks.String()), "\n")
	if len(lines) != 1+suite.Design.Columns {
		t.Fatalf("ranks CSV lines = %d", len(lines))
	}
	if lines[0] != "parameter,w1,sum" {
		t.Errorf("ranks header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "A,1,") {
		t.Errorf("top factor row = %q", lines[1])
	}
	var resps strings.Builder
	if err := WriteResponsesCSV(&resps, suite); err != nil {
		t.Fatal(err)
	}
	rlines := strings.Split(strings.TrimSpace(resps.String()), "\n")
	if len(rlines) != 1+suite.Design.Runs() {
		t.Fatalf("responses CSV lines = %d", len(rlines))
	}
	if !strings.Contains(rlines[0], "config,A,B") || !strings.HasSuffix(rlines[0], "w1") {
		t.Errorf("responses header = %q", rlines[0])
	}
	// Row 1 has the config index, one level per column, and cycles.
	fields := strings.Split(rlines[1], ",")
	if len(fields) != 1+suite.Design.Columns+1 {
		t.Errorf("responses row width = %d", len(fields))
	}
	// A suite without results cannot emit raw responses.
	bare := *suite
	bare.Results = make([]*pb.Result, 1)
	if err := WriteResponsesCSV(&strings.Builder{}, &bare); err == nil {
		t.Error("suite without results accepted")
	}
}
