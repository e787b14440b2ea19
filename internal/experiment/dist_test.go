package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"pbsim/internal/runner/dist"
	"pbsim/internal/sim"
	"pbsim/internal/workload"
)

func distOptions(t *testing.T) Options {
	t.Helper()
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Instructions: 1000,
		Warmup:       500,
		Foldover:     false,
		Workloads:    []workload.Workload{w},
	}
}

func TestCampaignManifestSpecRoundTrip(t *testing.T) {
	opts := distOptions(t)
	man, err := CampaignManifest(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Scopes) != 1 || man.Scopes[0].Name != "gzip" || man.Scopes[0].Rows != 44 {
		t.Fatalf("scopes = %+v, want gzip with the 44-run design", man.Scopes)
	}
	back, err := OptionsFromSpec(man.Spec)
	if err != nil {
		t.Fatal(err)
	}
	// The reconstruction is only trusted if its fingerprint matches;
	// CampaignTask is the gate, so it must accept the round trip.
	if _, err := CampaignTask(back, man); err != nil {
		t.Fatalf("round-tripped options rejected: %v", err)
	}
	// A worker with skewed flags is refused.
	skew := back
	skew.Instructions++
	if _, err := CampaignTask(skew, man); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("skewed options accepted: %v", err)
	}
}

// A shortcut suite's manifest carries no spec: an enhancement is code
// a joining worker cannot rebuild, so OptionsFromSpec (and with it
// pbworker) refuses the campaign rather than commit unenhanced rows
// under the enhanced fingerprint.
func TestCampaignManifestRejectsShortcuts(t *testing.T) {
	opts := distOptions(t)
	opts.Shortcut = func(workload.Workload) (sim.ComputeShortcut, error) { return nil, nil }
	man, err := CampaignManifest(opts)
	if err != nil {
		t.Fatal(err)
	}
	if man.Spec != nil {
		t.Fatalf("shortcut campaign has spec %v", man.Spec)
	}
	if _, err := OptionsFromSpec(man.Spec); err == nil || !strings.Contains(err.Error(), "shortcut") {
		t.Fatalf("joining a shortcut campaign = %v, want refusal", err)
	}
}

// Every row is run exactly once and reported under its real design
// row, scoped "label/benchmark" — both in memory and as a two-worker
// campaign.
func TestCheckpointReportsRealRows(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%t", checkpoint), func(t *testing.T) {
			opts := distOptions(t)
			mcf, err := workload.ByName("mcf")
			if err != nil {
				t.Fatal(err)
			}
			opts.Workloads = append(opts.Workloads, mcf)
			opts.Parallelism = 2
			if checkpoint {
				opts.Checkpoint = t.TempDir()
			}
			var mu sync.Mutex
			seen := make(map[string]int)
			opts.OnRow = func(scope string, row int, _ float64, fromCheckpoint bool) {
				mu.Lock()
				defer mu.Unlock()
				seen[fmt.Sprintf("%s/%d/%t", scope, row, fromCheckpoint)]++
			}
			if _, err := RunSuite(opts); err != nil {
				t.Fatal(err)
			}
			man, err := CampaignManifest(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range man.Units() {
				if key := fmt.Sprintf("base/%s/%d/false", u.Scope, u.Row); seen[key] != 1 {
					t.Errorf("%s reported %d times, want once", key, seen[key])
				}
			}
			if len(seen) != man.TotalRows() {
				t.Errorf("OnRow saw %d distinct rows, want %d: %v", len(seen), man.TotalRows(), seen)
			}
		})
	}
}

func TestOptionsFromSpecErrors(t *testing.T) {
	man, err := CampaignManifest(distOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	bad := func(mut func(map[string]string)) map[string]string {
		spec := make(map[string]string, len(man.Spec))
		for k, v := range man.Spec {
			spec[k] = v
		}
		mut(spec)
		return spec
	}
	cases := map[string]map[string]string{
		"wrong tool":    bad(func(s map[string]string) { s["tool"] = "nmap" }),
		"bad n":         bad(func(s map[string]string) { s["n"] = "many" }),
		"bad foldover":  bad(func(s map[string]string) { s["foldover"] = "?" }),
		"bad benchmark": bad(func(s map[string]string) { s["benchmarks"] = "gzip,doom" }),
	}
	for name, spec := range cases {
		if _, err := OptionsFromSpec(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDistributedMatchesSequential is the end-to-end bit-identity
// pin at the experiment layer: one worker executes the campaign, and
// the merged suite must carry the exact response vector and ranks the
// sequential path computes.
func TestDistributedMatchesSequential(t *testing.T) {
	opts := distOptions(t)
	seq, err := RunSuiteCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	man, err := CampaignManifest(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dist.Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	task, err := CampaignTask(opts, c.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.RunWorker(context.Background(), dir, task, dist.Config{ID: "w1"}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := SuiteFromMerge(opts, res)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Results[0].Responses {
		s, d := seq.Results[0].Responses[i], suite.Results[0].Responses[i]
		if math.Float64bits(s) != math.Float64bits(d) {
			t.Fatalf("row %d: sequential %x, distributed %x", i, math.Float64bits(s), math.Float64bits(d))
		}
	}
	for fi := range seq.Sums {
		if seq.Sums[fi] != suite.Sums[fi] {
			t.Fatalf("sum %d diverged: %d vs %d", fi, seq.Sums[fi], suite.Sums[fi])
		}
	}

	// An incomplete merge must never rank parameters.
	res.Values["gzip"][0] = math.NaN()
	if _, err := SuiteFromMerge(opts, res); err == nil {
		t.Fatal("incomplete merge produced a suite")
	}
}
