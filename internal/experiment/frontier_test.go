package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"pbsim/internal/enhance"
	"pbsim/internal/sampling"
	"pbsim/internal/workload"
)

func frontierWorkloads(t *testing.T, names ...string) []workload.Workload {
	t.Helper()
	ws := make([]workload.Workload, len(names))
	for i, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// TestFrontierGate is the acceptance pin for sampled Table 9: at a
// half-scale budget over four benchmarks spanning the suite's behavior
// (compute-bound gzip, memory-bound mcf and art, cache-friendly
// twolf), every estimator must cut detailed instructions by at least
// 10x while keeping Spearman rank correlation with the full ranking at
// or above 0.95. The whole pipeline is deterministic, so these bounds
// pin real margins, not luck. CI runs the same gate at full scale via
// `make frontier`.
func TestFrontierGate(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier gate simulates several suites")
	}
	rep, err := RunFrontier(context.Background(), FrontierOptions{
		Instructions: 50000,
		Warmup:       15000,
		Foldover:     true,
		Workloads:    frontierWorkloads(t, "gzip", "mcf", "twolf", "art"),
		Spec: sampling.Spec{
			RegionSize:   1000,
			Fraction:     0.08,
			RegionWarmup: -1,
			FuncWarmup:   12000,
			Seed:         1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("swept %d estimators, want 3", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.InstrSpeedup < 10 {
			t.Errorf("%s: instruction speedup %.1fx below the 10x gate", p.Estimator, p.InstrSpeedup)
		}
		if p.Spearman < 0.95 {
			t.Errorf("%s: Spearman %.3f below the 0.95 gate", p.Estimator, p.Spearman)
		}
		if !p.Pass {
			t.Errorf("%s: point marked failed", p.Estimator)
		}
		if p.MeanCPIRelErr <= 0 || p.MeanCPIRelErr > 0.15 {
			t.Errorf("%s: mean CPI relative error %.2f%% outside (0, 15%%]", p.Estimator, 100*p.MeanCPIRelErr)
		}
		if p.DetailedInstructions <= 0 || p.FunctionalInstructions <= 0 {
			t.Errorf("%s: degenerate cost accounting %+v", p.Estimator, p)
		}
	}
	if !rep.Pass {
		t.Error("frontier gate failed")
	}
	var text, md strings.Builder
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "PASS") || !strings.Contains(md.String(), "PASS") {
		t.Error("renderers must state the verdict")
	}
}

// TestSampledSuiteFractionOneBitIdentical is the suite-level census
// property: Sampling with Fraction 1.0 must produce response vectors
// bit-identical to the unsampled suite.
func TestSampledSuiteFractionOneBitIdentical(t *testing.T) {
	ws := frontierWorkloads(t, "gzip", "twolf")
	base := Options{Instructions: 8000, Warmup: 2000, Workloads: ws}
	full, err := RunSuite(base)
	if err != nil {
		t.Fatal(err)
	}
	sampled := base
	sampled.Sampling = &sampling.Spec{Fraction: 1.0, RegionWarmup: -1, FuncWarmup: -1}
	got, err := RunSuite(sampled)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range full.Results {
		fr, sr := full.Results[bi].Responses, got.Results[bi].Responses
		if len(fr) != len(sr) {
			t.Fatalf("benchmark %s: %d vs %d responses", full.Benchmarks[bi], len(fr), len(sr))
		}
		for i := range fr {
			if math.Float64bits(fr[i]) != math.Float64bits(sr[i]) {
				t.Fatalf("benchmark %s row %d: sampled %v != full %v", full.Benchmarks[bi], i, sr[i], fr[i])
			}
		}
	}
}

// TestSamplingRefusesShortcut pins the mutual exclusion: an enhanced
// suite cannot be sampled.
func TestSamplingRefusesShortcut(t *testing.T) {
	opts := Options{
		Instructions: 8000,
		Workloads:    frontierWorkloads(t, "gzip"),
		Sampling:     &sampling.Spec{},
		Enhance:      enhance.Spec{Mechanism: enhance.MechValueReuse, TableSize: 128},
	}
	if _, err := RunSuite(opts); err == nil || !strings.Contains(err.Error(), "sampling cannot be combined") {
		t.Fatalf("sampling + enhancement = %v, want a refusal", err)
	}
}

// TestFingerprintDistinguishesSampling: a sampled experiment must never
// share a checkpoint fingerprint with the full one, or with a sampled
// one under different parameters — while equivalent specs (explicit
// defaults vs defaulted zeros) must collide.
func TestFingerprintDistinguishesSampling(t *testing.T) {
	fingerprint := func(opts Options) string {
		t.Helper()
		man, err := CampaignManifest(opts)
		if err != nil {
			t.Fatal(err)
		}
		return man.Fingerprint
	}
	base := Options{Instructions: 1000, Warmup: 100, Foldover: true}
	spec := sampling.Spec{Fraction: 0.25}
	a := base
	a.Sampling = &spec
	full := fingerprint(base)
	sampledFP := fingerprint(a)
	if full == sampledFP {
		t.Fatal("sampled and full fingerprints collide")
	}
	other := base
	other.Sampling = &sampling.Spec{Fraction: 0.5}
	if fingerprint(other) == sampledFP {
		t.Fatal("different fractions share a fingerprint")
	}
	explicit := spec.Normalized()
	b := base
	b.Sampling = &explicit
	if fingerprint(b) != sampledFP {
		t.Fatal("equivalent specs (defaulted vs explicit) must share a fingerprint")
	}
}

// TestCampaignRoundTripSampling: a sampled campaign's fingerprint must
// let a bare worker reconstruct Options whose fingerprint matches, and
// CampaignTask must accept them.
func TestCampaignRoundTripSampling(t *testing.T) {
	opts := Options{
		Instructions: 4000,
		Warmup:       1000,
		Foldover:     true,
		Workloads:    frontierWorkloads(t, "gzip", "twolf"),
		Sampling:     &sampling.Spec{Fraction: 0.25, RegionWarmup: -1, FuncWarmup: 2000, Seed: 9},
	}
	man, err := CampaignManifest(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(man.Fingerprint, "|sample=") {
		t.Fatalf("fingerprint %q lacks the sample spec", man.Fingerprint)
	}
	rec, err := ParseFingerprint(man.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Sampling == nil {
		t.Fatal("reconstructed options lack sampling")
	}
	task, err := CampaignTask(rec, man)
	if err != nil {
		t.Fatal(err)
	}
	// One row through the reconstructed task must equal the same row
	// through the original options' task, bit for bit.
	orig, err := CampaignTask(opts, man)
	if err != nil {
		t.Fatal(err)
	}
	a, err := task(context.Background(), "gzip", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := orig(context.Background(), "gzip", 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("reconstructed row %v != original %v", a, b)
	}
}
