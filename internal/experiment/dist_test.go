package experiment

import (
	"context"
	"fmt"
	"maps"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"pbsim/internal/enhance"
	"pbsim/internal/obs"
	"pbsim/internal/runner/dist"
	"pbsim/internal/sampling"
	"pbsim/internal/workload"
)

// rowEvents counts RowFinished events by
// "scope/row/fromCheckpoint".
type rowEvents struct {
	obs.Nop
	mu   sync.Mutex
	seen map[string]int
}

func (e *rowEvents) RowFinished(scope string, row int, _ float64, _ time.Duration, _ int, fromCheckpoint bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen == nil {
		e.seen = make(map[string]int)
	}
	e.seen[fmt.Sprintf("%s/%d/%t", scope, row, fromCheckpoint)]++
}

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

var (
	precompute128 = enhance.Spec{Mechanism: enhance.MechPrecompute, TableSize: 128}
	valueReuse128 = enhance.Spec{Mechanism: enhance.MechValueReuse, TableSize: 128}
)

// Base and enhanced suites alike write a manifest spec that a joining
// worker turns back into the identical task.
func TestCampaignManifestSpecRoundTrip(t *testing.T) {
	for _, enh := range []enhance.Spec{{}, precompute128, valueReuse128} {
		t.Run(enh.String(), func(t *testing.T) {
			opts := distOptions(t)
			opts.Enhance = enh
			man, err := CampaignManifest(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Scopes) != 1 || man.Scopes[0].Name != "gzip" || man.Scopes[0].Rows != 44 {
				t.Fatalf("scopes = %+v, want gzip with the 44-run design", man.Scopes)
			}
			if got := man.Spec[specLabel]; got != enh.String() {
				t.Fatalf("spec label = %q, want %q", got, enh)
			}
			back, err := OptionsFromSpec(man.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if back.Enhance != enh {
				t.Fatalf("round-tripped enhancement = %+v, want %+v", back.Enhance, enh)
			}
			// The reconstruction is only trusted if its fingerprint
			// matches; CampaignTask is the gate, so it must accept the
			// round trip.
			if _, err := CampaignTask(back, man); err != nil {
				t.Fatalf("round-tripped options rejected: %v", err)
			}
			// A worker with skewed flags is refused.
			skew := back
			skew.Instructions++
			if _, err := CampaignTask(skew, man); err == nil || !strings.Contains(err.Error(), "fingerprint") {
				t.Fatalf("skewed options accepted: %v", err)
			}
		})
	}
}

// FuzzOptionsFromSpec: the manifest spec decoder never panics, and any
// spec it accepts is exactly the map CampaignManifest writes for the
// options it decodes to.
func FuzzOptionsFromSpec(f *testing.F) {
	f.Add("pbrank", "1000", "500", "false", "base", "gzip", "")
	f.Add("pbrank", "2000", "1000", "true", "precompute-128", "gzip,mcf", "")
	f.Add("pbrank", "2000", "0", "true", "valuereuse-64", "mcf", "")
	f.Add("pbrank", "8000", "2000", "false", "base", "gzip", (&sampling.Spec{}).Normalized().String())
	f.Add("pbrank", "+1000", "500", "1", "precompute-0128", "gzip,", "uniform")
	f.Fuzz(func(t *testing.T, tool, n, warmup, foldover, label, benchmarks, sample string) {
		spec := map[string]string{
			specTool: tool, specN: n, specWarmup: warmup, specFoldover: foldover,
			specLabel: label, specBenchmarks: benchmarks,
		}
		if sample != "" {
			spec[specSample] = sample
		}
		opts, err := OptionsFromSpec(spec)
		if err != nil {
			return
		}
		man, err := CampaignManifest(opts)
		if err != nil {
			t.Fatalf("accepted spec %v does not plan: %v", spec, err)
		}
		if !maps.Equal(man.Spec, spec) {
			t.Fatalf("accepted spec %v round-trips to %v", spec, man.Spec)
		}
	})
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
			rows := &rowEvents{}
			opts.Recorder = rows
			if _, err := RunSuite(opts); err != nil {
				t.Fatal(err)
			}
			seen := rows.seen
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
				t.Errorf("recorder saw %d distinct rows, want %d: %v", len(seen), man.TotalRows(), seen)
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
		"bad label":     bad(func(s map[string]string) { s["label"] = "turbo-128" }),
		"table size 0":  bad(func(s map[string]string) { s["label"] = "precompute-0" }),
		"padded n":      bad(func(s map[string]string) { s["n"] = "01000" }),
		"extra key":     bad(func(s map[string]string) { s["shortcut"] = "yes" }),
		"no spec":       nil,
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
// sequential path computes. The enhanced campaign's worker, like
// pbworker, rebuilds its task from the manifest spec alone.
func TestDistributedMatchesSequential(t *testing.T) {
	for _, enh := range []enhance.Spec{{}, precompute128} {
		t.Run(enh.String(), func(t *testing.T) {
			opts := distOptions(t)
			opts.Enhance = enh
			checkDistributedMatchesSequential(t, opts)
		})
	}
}

func checkDistributedMatchesSequential(t *testing.T, opts Options) {
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
	joined, err := OptionsFromSpec(c.Manifest().Spec)
	if err != nil {
		t.Fatal(err)
	}
	task, err := CampaignTask(joined, c.Manifest())
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
