package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(repo string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func loadResult(path string) (map[string]workloadResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r map[string]workloadResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Verdicts of compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges one (metric, workload) pair from the parent's reps
// (old) and the change's (new), paired in order. improved: the change
// wins at least 9 of 10 pairs (ties count for neither) and the medians
// differ by more than the parent's interquartile range. unresolved:
// the parent's spread exceeds the bound, unless every new rep beats
// every old one. worse: the new median is worse by more than the
// bound, as a share of the old median. Otherwise unchanged.
func verdict(old, new []float64, lowerBetter bool, bound float64) (label string, wins, pairs int) {
	better := func(a, b float64) bool { return lowerBetter && a < b || !lowerBetter && a > b }
	pairs = min(len(old), len(new))
	if pairs == 0 {
		return unresolved, 0, 0
	}
	for i := 0; i < pairs; i++ {
		if better(new[i], old[i]) {
			wins++
		}
	}
	mOld, mNew := median(old), median(new)
	gain := mNew - mOld
	if lowerBetter {
		gain = -gain
	}
	allBetter := true
	for _, n := range new {
		for _, o := range old {
			allBetter = allBetter && better(n, o)
		}
	}
	switch {
	case 10*wins >= 9*pairs && gain > iqr(old):
		return improved, wins, pairs
	case iqr(old) > bound*math.Abs(mOld) && !allBetter:
		return unresolved, wins, pairs
	case -gain > bound*math.Abs(mOld):
		return worse, wins, pairs
	}
	return unchanged, wins, pairs
}

// compareMain labels every (end-to-end metric, workload) pair of two
// result files; it exits 1 when any pair is worse.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pbsim-bench compare", flag.ContinueOnError)
	repo := fs.String("repo", ".", "repository root holding BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: pbsim-bench compare [-repo DIR] OLD.json NEW.json")
		return 2
	}
	spec, err := loadSpec(*repo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsim-bench compare: %v\n", err)
		return 2
	}
	old, err := loadResult(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsim-bench compare: %v\n", err)
		return 2
	}
	cur, err := loadResult(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsim-bench compare: %v\n", err)
		return 2
	}
	var names []string
	for name := range old {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			o, n := old[name].Metrics[m.Name], cur[name].Metrics[m.Name]
			label, wins, pairs := verdict(o.Samples, n.Samples, m.Better == "lower", m.Bound)
			change := 100 * (n.Value/o.Value - 1)
			fmt.Fprintf(stdout, "%-15s %-12s %-10s old %.6g new %.6g %s (%+.1f%%, %d/%d pairs won)\n",
				name, m.Name, label, o.Value, n.Value, m.Unit, change, wins, pairs)
			if label == worse {
				code = 1
			}
		}
	}
	return code
}
