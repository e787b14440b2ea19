package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
)

const (
	goldenFile = "golden.json"
	truthFile  = "truth.json"
)

// goldenEntry is one campaign workload's seed-0 answer.
type goldenEntry struct {
	Config string `json:"config"`
	Digest string `json:"digest"`
	Order  []int  `json:"order"`
}

// truthData is full simulation of the sampled workload's window at
// seed 0: 88 responses per benchmark, the ground truth the sampled
// campaign is scored on.
type truthData struct {
	Config     string      `json:"config"`
	Benchmarks []string    `json:"benchmarks"`
	Responses  [][]float64 `json:"responses"`
}

// loadGolden reads the golden answers; a missing file yields none.
func loadGolden(dir string) (map[string]goldenEntry, error) {
	data, err := os.ReadFile(filepath.Join(dir, goldenFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g map[string]goldenEntry
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return g, nil
}

// loadTruth returns the committed full-simulation responses for the
// sampled workload w, or nil when they do not apply: another seed,
// another window, or no file.
func loadTruth(dir string, w benchWorkload, seed uint64) ([][]float64, error) {
	if seed != 0 {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, truthFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var t truthData
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", truthFile, err)
	}
	if t.Config != w.truthWorkload().config() {
		return nil, nil
	}
	return t.Responses, nil
}

// checkRep judges a rep's output: against the golden answer when one
// was recorded for this exact configuration (seed 0 only), otherwise
// against the first good rep of the same workload in this run (every
// rep must be bit-identical). A lint sweep must also leave no active
// finding, the repository's own merge rule.
func checkRep(res repResult, golden *goldenEntry, first *repResult) error {
	if res.Active != 0 {
		return fmt.Errorf("lint sweep reports %d active findings", res.Active)
	}
	want := first
	if golden != nil {
		want = &repResult{Digest: golden.Digest, Order: golden.Order}
	}
	if want == nil {
		return nil
	}
	if res.Digest != want.Digest {
		return fmt.Errorf("response digest %s, want %s", res.Digest, want.Digest)
	}
	if !slices.Equal(res.Order, want.Order) {
		return fmt.Errorf("Table 9 order %v, want %v", res.Order, want.Order)
	}
	return nil
}

// runGolden regenerates the golden data at seed 0: each campaign
// workload's digest and Table 9 order, a check that the distributed
// campaign reproduces the in-process one bit for bit, and the full
// simulation behind the sampled workload's accuracy metrics.
func runGolden(ctx context.Context, repo, dir string, short bool) error {
	golden := make(map[string]goldenEntry)
	var truth *truthData
	for _, w := range workloadsFor(short) {
		if w.Kind == kindLint {
			continue
		}
		out, err := runOnce(ctx, w, repo)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		golden[w.Name] = goldenEntry{Config: w.config(), Digest: out.digest(), Order: out.suite.Order}
		fmt.Fprintf(os.Stderr, "golden %s: %s\n", w.Name, out.digest())
		if w.Kind == kindDist {
			seq := w
			seq.Kind = kindSuite
			in, err := runOnce(ctx, seq, repo)
			if err != nil {
				return fmt.Errorf("%s in-process: %w", w.Name, err)
			}
			if in.digest() != out.digest() {
				return fmt.Errorf("%s: distributed digest %s, in-process %s", w.Name, out.digest(), in.digest())
			}
		}
		if w.Sampling != nil {
			tw := w.truthWorkload()
			full, err := runOnce(ctx, tw, repo)
			if err != nil {
				return fmt.Errorf("%s: %w", tw.Name, err)
			}
			truth = &truthData{Config: tw.config(), Benchmarks: full.suite.Benchmarks, Responses: full.responses()}
		}
	}
	if err := writeJSON(filepath.Join(dir, goldenFile), golden); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, truthFile), truth)
}

// runOnce runs a workload's work once, in this process, at seed 0.
func runOnce(ctx context.Context, w benchWorkload, repo string) (*outcome, error) {
	p, err := setup(w, 0, repo, nil)
	if err != nil {
		return nil, err
	}
	out, err := run(ctx, p, nil, nil, -1)
	return out, errors.Join(err, p.cleanup())
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
