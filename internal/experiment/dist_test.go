package experiment

import (
	"context"
	"fmt"
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

// Base and enhanced suites alike write a manifest whose fingerprint a
// joining worker turns back into the identical task.
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
			if want := "|label=" + enh.String() + "|"; !strings.Contains(man.Fingerprint, want) {
				t.Fatalf("fingerprint %q lacks %q", man.Fingerprint, want)
			}
			back, err := ParseFingerprint(man.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			if back.Enhance != enh {
				t.Fatalf("round-tripped enhancement = %+v, want %+v", back.Enhance, enh)
			}
			// CampaignTask is the gate a worker passes through, so it
			// must accept the round trip.
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

// FuzzParseFingerprint: the fingerprint decoder never panics, and any
// text it accepts plans and renders back to exactly that text.
func FuzzParseFingerprint(f *testing.F) {
	for _, seed := range []string{
		"pb:x=44,foldover=false,runs=44|n=1000|warmup=500|label=base|benchmarks=gzip",
		"pb:x=44,foldover=true,runs=88|n=2000|warmup=1000|label=precompute-128|benchmarks=gzip,mcf",
		"pb:x=44,foldover=true,runs=88|n=2000|warmup=0|label=valuereuse-64|benchmarks=mcf",
		"pb:x=44,foldover=false,runs=44|n=8000|warmup=2000|label=base|benchmarks=gzip|sample=" + (&sampling.Spec{}).Normalized().String(),
		"pb:x=44,foldover=1,runs=88|n=+1000|warmup=500|label=precompute-0128|benchmarks=gzip,|sample=uniform",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, fp string) {
		opts, err := ParseFingerprint(fp)
		if err != nil {
			return
		}
		man, err := CampaignManifest(opts)
		if err != nil {
			t.Fatalf("accepted fingerprint %q does not plan: %v", fp, err)
		}
		if man.Fingerprint != fp {
			t.Fatalf("accepted fingerprint %q renders as %q", fp, man.Fingerprint)
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

func TestParseFingerprintErrors(t *testing.T) {
	man, err := CampaignManifest(distOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	fp := man.Fingerprint
	if _, err := ParseFingerprint(fp); err != nil {
		t.Fatalf("canonical fingerprint %q refused: %v", fp, err)
	}
	cases := map[string]string{
		"bad design":     strings.Replace(fp, "foldover=false", "foldover=?", 1),
		"wrong geometry": strings.Replace(fp, "runs=44", "runs=88", 1),
		"bad n":          strings.Replace(fp, "n=1000", "n=many", 1),
		"padded n":       strings.Replace(fp, "n=1000", "n=01000", 1),
		"bad benchmark":  strings.Replace(fp, "benchmarks=gzip", "benchmarks=gzip,doom", 1),
		"no benchmarks":  strings.Replace(fp, "|benchmarks=gzip", "", 1),
		"bad label":      strings.Replace(fp, "label=base", "label=turbo-128", 1),
		"table size 0":   strings.Replace(fp, "label=base", "label=precompute-0", 1),
		"short sample":   fp + "|sample=uniform",
		"extra field":    fp + "|shortcut=yes",
		"repeated field": fp + "|n=1000",
		"no fingerprint": "",
	}
	for name, text := range cases {
		if _, err := ParseFingerprint(text); err == nil {
			t.Errorf("%s: %q accepted", name, text)
		}
	}
}

// TestDistributedMatchesSequential is the end-to-end bit-identity
// pin at the experiment layer: one worker executes the campaign, and
// the merged suite must carry the exact response vector and ranks the
// sequential path computes. The enhanced campaign's worker, like
// pbworker, rebuilds its task from the manifest's fingerprint alone.
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
	joined, err := ParseFingerprint(c.Manifest().Fingerprint)
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
