package experiment

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"pbsim/internal/enhance"
	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
	"pbsim/internal/sampling"
	"pbsim/internal/sim"
	"pbsim/internal/workload"
)

func TestResponseDeterministic(t *testing.T) {
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	resp, respErr := Response(w, 2000, 4000, nil).Infallible()
	design, err := pb.New(41, false)
	if err != nil {
		t.Fatal(err)
	}
	row := design.Row(0)
	if a, b := resp(row), resp(row); a != b {
		t.Errorf("response not deterministic: %g vs %g", a, b)
	}
	// The 4-wide machine cannot beat IPC 4.
	if y := resp(row); y < 1000 {
		t.Errorf("cycles = %g, below the 4-wide bound", y)
	}
	if err := respErr(); err != nil {
		t.Fatal(err)
	}
}

func TestResponseDependsOnLevels(t *testing.T) {
	w, _ := workload.ByName("mcf")
	resp, respErr := Response(w, 2000, 4000, nil).Infallible()
	low := make([]pb.Level, 43)
	high := make([]pb.Level, 43)
	for i := range low {
		low[i] = pb.Low
		high[i] = pb.High
	}
	yl, yh := resp(low), resp(high)
	if err := respErr(); err != nil {
		t.Fatal(err)
	}
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
	resp := Response(bad, 0, 1000, nil)
	_, err := resp(context.Background(), make([]pb.Level, 43))
	if err == nil {
		t.Fatal("invalid workload accepted")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not name the workload", err)
	}

	// A failing shortcut factory is also an error, not a panic.
	w, _ := workload.ByName("gzip")
	factoryErr := errors.New("table allocation failed")
	resp = Response(w, 0, 1000, func(workload.Workload) (sim.ComputeShortcut, error) {
		return nil, factoryErr
	})
	if _, err := resp(context.Background(), make([]pb.Level, 43)); !errors.Is(err, factoryErr) {
		t.Errorf("shortcut error not propagated: %v", err)
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

// interruptAfter returns an OnRow that cancels the run once the given
// number of rows has been simulated.
func interruptAfter(rows int, cancel context.CancelFunc) func(string, int, float64, bool) {
	done := 0
	return func(string, int, float64, bool) {
		if done++; done == rows {
			cancel()
		}
	}
}

// resumeCheckpoint interrupts a checkpointed run of opts after a few
// rows, resumes it, and returns the resumed suite after checking that
// every unit committed before the interruption was reported restored
// — to OnRow and to the Recorder — and every other one simulated.
func resumeCheckpoint(t *testing.T, opts Options) *pb.Suite {
	t.Helper()
	opts.Parallelism = 1 // serialize so the OnRow counters need no lock
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.OnRow = interruptAfter(10, cancel)
	if _, err := RunSuiteCtx(ctx, opts); !runner.Cancelled(err) {
		t.Fatalf("interrupted run = %v, want cancellation", err)
	}
	before, err := dist.MergeDir(opts.Checkpoint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.Committed == 0 || before.Complete() {
		t.Fatalf("interrupted campaign committed %d units, want a partial campaign", before.Committed)
	}
	var restored, simulated int
	opts.OnRow = func(_ string, _ int, _ float64, fromCheckpoint bool) {
		if fromCheckpoint {
			restored++
		} else {
			simulated++
		}
	}
	m := obs.NewMetrics()
	opts.Recorder = m
	suite, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	total := suite.Design.Runs() * len(suite.Benchmarks)
	if restored != before.Committed || simulated != total-before.Committed {
		t.Errorf("resume restored %d and simulated %d rows, want %d and %d", restored, simulated, before.Committed, total-before.Committed)
	}
	if r := m.RowsResumed.Value(); r != int64(before.Committed) {
		t.Errorf("RowsResumed = %d, want the %d committed units", r, before.Committed)
	}
	return suite
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

// A Table 12 suite (an enhancement shortcut) resumes from its campaign
// like any other; only joining workers are refused (see
// TestCampaignManifestRejectsShortcuts).
func TestCheckpointShortcutSuiteResumes(t *testing.T) {
	w, _ := workload.ByName("gzip")
	freq, err := enhance.Profile(w.Params, 3000)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Instructions: 2000,
		Warmup:       1000,
		Workloads:    []workload.Workload{w},
		Label:        "precompute-128",
		Shortcut: func(workload.Workload) (sim.ComputeShortcut, error) {
			return enhance.NewPrecomputation(freq, 128)
		},
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
	factory := func(w workload.Workload) (sim.ComputeShortcut, error) {
		freq, err := enhance.Profile(w.Params, 20000)
		if err != nil {
			return nil, err
		}
		return enhance.NewPrecomputation(freq, 128)
	}
	base, baseErr := Response(w, 2000, 5000, nil).Infallible()
	enhanced, enhancedErr := Response(w, 2000, 5000, factory).Infallible()
	levels := make([]pb.Level, 43)
	for i := range levels {
		levels[i] = pb.Low
	}
	yb, ye := base(levels), enhanced(levels)
	if err := baseErr(); err != nil {
		t.Fatal(err)
	}
	if err := enhancedErr(); err != nil {
		t.Fatal(err)
	}
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
	resp := func(l []pb.Level) float64 { return 100 + 10*float64(l[0]) }
	suite, err := pb.RunSuite(factors, []string{"w1"}, []pb.Response{resp}, pb.Options{Foldover: true})
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
