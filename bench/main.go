// Command pbsim-bench is the repository benchmark: the Table 9
// campaign three ways (full, sampled and distributed simulation) and
// the pbcheck sweep, measured end to end with tracing off, plus one
// traced rep per workload that splits the time across the layers
// trace, sim, sim/cache, sim/bpred, sampling, runner, runner/dist, pb
// and analysis. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh golden
//	bash bench/run.sh compare OLD.json NEW.json
//
// Every rep runs in a fresh child process (this binary, re-executed
// with GOMAXPROCS=2). The run prints one "workload metric value unit"
// line per metric, writes bench/out/result.json and ends with one JSON
// summary line. It exits 1 if any rep failed or produced wrong output.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeconds is how long a run measures each workload when -seconds
// is not given; BENCHMARK.json's run_seconds says the same.
const defaultSeconds = 25

// runDeadline bounds one workload's share of a run, children included,
// so a hung rep cannot keep the benchmark alive.
const runDeadline = 170 * time.Second

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(args) > 0 {
		switch args[0] {
		case "golden":
			return goldenMain(ctx, args[1:])
		case "compare":
			return compareMain(args[1:], stdout)
		}
	}
	fs := flag.NewFlagSet("pbsim-bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all of them in interleaved rounds")
	seed := fs.Uint64("seed", 0, "seed mixed into every benchmark's stream (lint-sweep ignores it)")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of reps per workload")
	traced := fs.Int("trace", 1, "1 adds one traced rep per workload and reports the per-layer metrics")
	short := fs.Bool("short", false, "smoke-sized workloads (2 benchmarks, n=500)")
	repo := fs.String("repo", ".", "repository root")
	out := fs.String("out", "", "output directory (default <repo>/bench/out)")
	testdata := fs.String("testdata", "", "golden data directory (default <repo>/bench/testdata)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "pbsim-bench: -trace must be 0 or 1, -seconds at least 1, and no arguments follow the flags")
		return 2
	}
	if *out == "" {
		*out = filepath.Join(*repo, "bench", "out")
	}
	if *testdata == "" {
		*testdata = filepath.Join(*repo, "bench", "testdata")
	}
	ws := workloadsFor(*short)
	if *name != "all" {
		w, err := findWorkload(*name, *short)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbsim-bench: %v\n", err)
			return 2
		}
		ws = []benchWorkload{w}
	}
	golden, err := loadGolden(*testdata)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsim-bench: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsim-bench: %v\n", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(ctx, time.Duration(len(ws))*runDeadline)
	defer cancel()
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w}
		if g, ok := golden[w.Name]; ok && *seed == 0 && g.Config == w.config() {
			runs[i].golden = &g
		}
	}
	base := repConfig{Seed: *seed, Short: *short, Repo: *repo, Out: *out, Testdata: *testdata}

	// Interleaved rounds: rep r of every workload, then rep r+1, so a
	// noisy period on a shared machine lands on all workloads. A round
	// starts only if one more of the last round's length still fits.
	budget := time.Duration(*seconds*len(ws)) * time.Second
	start := time.Now()
	for ctx.Err() == nil {
		t := time.Now()
		for _, r := range runs {
			r.rep(ctx, exe, base)
		}
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	if *traced == 1 {
		for _, r := range runs {
			c := base
			c.Traced = true
			r.rep(ctx, exe, c)
		}
	}
	return report(stdout, runs, *out, *traced == 1)
}

// workloadRun collects one workload's reps.
type workloadRun struct {
	w         benchWorkload
	golden    *goldenEntry
	first     *repResult // first good rep: the reference at seeds without golden data
	reps      []repResult
	traced    *repResult
	attempted int
	failed    int
}

// rep runs one rep in a fresh child and checks its output.
func (r *workloadRun) rep(ctx context.Context, exe string, c repConfig) {
	r.attempted++
	c.Workload = r.w.Name
	res, err := spawn(ctx, exe, c)
	if err == nil {
		err = checkRep(res, r.golden, r.first)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "pbsim-bench: %s rep %d failed: %v\n", r.w.Name, r.attempted, err)
		return
	}
	if r.first == nil {
		r.first = &res
	}
	if c.Traced {
		r.traced = &res
	} else {
		r.reps = append(r.reps, res)
	}
}

// spawn runs one rep in a child process and waits for it.
func spawn(ctx context.Context, exe string, c repConfig) (repResult, error) {
	var res repResult
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, c.args()...)
	cmd.Env = append(os.Environ(), childEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", workers))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return res, errors.Join(runErr, fmt.Errorf("rep output: %w", err))
	}
	if res.Err != "" {
		return res, errors.Join(errors.New(res.Err), runErr)
	}
	return res, runErr
}

// metricValue is one reported metric; Samples holds the per-rep values
// the median was taken over.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// endToEnd returns the median of each end-to-end metric over the good
// untraced reps.
func (r *workloadRun) endToEnd() map[string]metricValue {
	out := make(map[string]metricValue)
	for _, m := range endToEnd {
		var xs []float64
		for _, rep := range r.reps {
			xs = append(xs, rep.e2e(m.Name))
		}
		out[m.Name] = metricValue{Value: finite(median(xs)), Unit: m.Unit, Samples: xs}
	}
	return out
}

func (rep repResult) e2e(name string) float64 {
	switch name {
	case "wall_s":
		return rep.WallS
	case "cpu_s":
		return rep.CPUS
	case "setup_s":
		return rep.SetupS
	default:
		return rep.PeakRSSMB
	}
}

// perLayer returns the traced rep's metrics, with proc.* from the
// untraced reps and the tracing overhead against their median wall.
func (r *workloadRun) perLayer() map[string]metricValue {
	var alloc, gc, wall []float64
	for _, rep := range r.reps {
		alloc = append(alloc, rep.AllocMB)
		gc = append(gc, rep.GCCycles)
		wall = append(wall, rep.WallS)
	}
	vals := map[string]float64{"proc.alloc_mb": median(alloc), "proc.gc_cycles": median(gc)}
	if r.traced != nil {
		for k, v := range r.traced.Layers {
			vals[k] = v
		}
		vals["bench.trace_overhead_pct"] = 100 * (r.traced.WallS/median(wall) - 1)
	}
	out := make(map[string]metricValue)
	for _, m := range perLayer() {
		out[m.Name] = metricValue{Value: finite(vals[m.Name]), Unit: m.Unit}
	}
	return out
}

// finite maps the NaN of an empty sample to 0; such a run has failed
// reps and reports correct=false.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// summaryLine is the last line a run prints.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric, writes result.json and prints the
// summary line; it returns the exit code.
func report(stdout io.Writer, runs []*workloadRun, outDir string, traced bool) int {
	results := make(map[string]workloadResult)
	summary := summaryLine{Metrics: make(map[string]metricValue)}
	for _, r := range runs {
		res := workloadResult{Attempted: r.attempted, Failed: r.failed, Metrics: r.endToEnd()}
		defs := endToEnd
		last := res.Metrics
		if traced {
			last = r.perLayer()
			for k, v := range last {
				res.Metrics[k] = v
			}
			defs = append(append([]metricDef(nil), endToEnd...), perLayer()...)
		}
		for _, m := range defs {
			v := res.Metrics[m.Name]
			fmt.Fprintf(stdout, "%s %s %v %s\n", r.w.Name, m.Name, v.Value, v.Unit)
		}
		fmt.Fprintf(stdout, "%s fail_frac %v ratio\n", r.w.Name, float64(r.failed)/float64(r.attempted))
		results[r.w.Name] = res
		summary.Attempted += r.attempted
		summary.Failed += r.failed
		for k, v := range last {
			if len(runs) > 1 {
				k = r.w.Name + "/" + k
			}
			summary.Metrics[k] = metricValue{Value: v.Value, Unit: v.Unit}
		}
	}
	summary.Correct = summary.Failed == 0
	code := 0
	if err := writeJSON(filepath.Join(outDir, "result.json"), results); err != nil {
		fmt.Fprintf(os.Stderr, "pbsim-bench: %v\n", err)
		code = 1
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsim-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !summary.Correct {
		code = 1
	}
	return code
}

func goldenMain(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("pbsim-bench golden", flag.ContinueOnError)
	short := fs.Bool("short", false, "smoke-sized workloads")
	repo := fs.String("repo", ".", "repository root")
	dir := fs.String("testdata", "", "output directory (default <repo>/bench/testdata)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		*dir = filepath.Join(*repo, "bench", "testdata")
	}
	if err := runGolden(ctx, *repo, *dir, *short); err != nil {
		fmt.Fprintf(os.Stderr, "pbsim-bench golden: %v\n", err)
		return 1
	}
	return 0
}
