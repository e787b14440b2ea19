package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"pbsim/internal/analysis"
)

// childEnv marks a process as one measured rep. The parent re-executes
// its own binary with it set, so every rep starts with cold
// process-global memos (compiled trace programs, sampling schedules,
// designs), as a command-line invocation does.
const childEnv = "PBSIM_BENCH_CHILD"

// repResult is one rep's report, printed by the child as one JSON line.
type repResult struct {
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	SetupS    float64            `json:"setup_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	AllocMB   float64            `json:"alloc_mb"`
	GCCycles  float64            `json:"gc_cycles"`
	Digest    string             `json:"digest"`
	Order     []int              `json:"order,omitempty"`
	Active    int                `json:"active_findings"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Err       string             `json:"error,omitempty"`
}

// repConfig is what a child needs to run one rep.
type repConfig struct {
	Workload string
	Seed     uint64
	Traced   bool
	Short    bool
	Repo     string
	Out      string
	Testdata string
}

func (c repConfig) args() []string {
	return []string{
		"-workload", c.Workload, "-seed", fmt.Sprint(c.Seed), fmt.Sprintf("-traced=%t", c.Traced),
		fmt.Sprintf("-short=%t", c.Short), "-repo", c.Repo, "-out", c.Out, "-testdata", c.Testdata,
	}
}

// childMain runs one rep and prints its repResult; a failed rep still
// prints a result, carrying the error, and exits 1.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pbsim-bench child", flag.ContinueOnError)
	var c repConfig
	fs.StringVar(&c.Workload, "workload", "", "workload name")
	fs.Uint64Var(&c.Seed, "seed", 0, "workload seed")
	fs.BoolVar(&c.Traced, "traced", false, "record spans and per-layer metrics")
	fs.BoolVar(&c.Short, "short", false, "smoke-sized workloads")
	fs.StringVar(&c.Repo, "repo", ".", "repository root")
	fs.StringVar(&c.Out, "out", "", "output directory")
	fs.StringVar(&c.Testdata, "testdata", "", "golden data directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runRep(context.Background(), c)
	if err != nil {
		res.Err = err.Error()
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "pbsim-bench: %v\n", err)
		return 1
	}
	if res.Err != "" {
		return 1
	}
	return 0
}

// runRep sets up and runs one rep in this process, measuring the work
// with tracing off unless c.Traced.
func runRep(ctx context.Context, c repConfig) (repResult, error) {
	var res repResult
	w, err := findWorkload(c.Workload, c.Short)
	if err != nil {
		return res, err
	}
	var tr *tracer
	if c.Traced {
		tr = newTracer()
	}
	t0 := time.Now()
	p, err := setup(w, c.Seed, c.Repo, tr)
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	res.SetupS = time.Since(t0).Seconds()

	var rec *recorder
	work := tr.begin("bench.work", -1, "")
	if c.Traced {
		rec = recorderFor(w, tr, work)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return res, err
	}
	t1 := time.Now()
	out, err := run(ctx, p, tr, rec, work)
	res.WallS = time.Since(t1).Seconds()
	tr.end(work)
	cpu1, cerr := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err := errors.Join(err, cerr, p.cleanup()); err != nil {
		return res, err
	}
	res.CPUS = cpu1 - cpu0
	res.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	res.GCCycles = float64(m1.NumGC - m0.NumGC)
	res.Digest = out.digest()
	if out.suite != nil {
		res.Order = out.suite.Order
	} else {
		res.Active = analysis.Active(out.diags)
	}

	if c.Traced {
		if res.Layers, err = traceLayers(ctx, c, p, out, tr, rec, work); err != nil {
			return res, err
		}
	}
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return res, err
	}
	return res, nil
}

func rusage() (syscall.Rusage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return ru, fmt.Errorf("getrusage: %w", err)
	}
	return ru, nil
}

// cpuSeconds is this process's user+sys CPU time so far.
func cpuSeconds() (float64, error) {
	ru, err := rusage()
	if err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// peakRSSMB is this process's peak resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() (float64, error) {
	ru, err := rusage()
	if err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}
