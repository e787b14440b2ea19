package sampling

import (
	"math"
	"testing"

	"pbsim/internal/trace"
)

func testSpec(est string) Spec {
	return Spec{Estimator: est, RegionSize: 500, Fraction: 0.25, RegionWarmup: -1, Seed: 1}.Normalized()
}

func TestNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("Names() = %v, want three estimators", names)
	}
	for _, n := range names {
		e, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != n {
			t.Fatalf("ByName(%q).Name() = %q", n, e.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName should reject unknown estimators")
	}
}

func TestPlanRejectsBudgetBeyondPopulation(t *testing.T) {
	// The "region count smaller than sample size" edge: a plan must
	// refuse a budget it cannot place (Run clamps before ever getting
	// here, which TestFractionClampsToCensus pins).
	for _, e := range estimators {
		proxy := make([]float64, 3)
		if _, err := e.Plan(3, 5, testSpec(e.Name()), proxy, trace.NewRNG(1)); err == nil {
			t.Fatalf("%s: Plan(3 regions, budget 5) should fail", e.Name())
		}
		if _, err := e.Plan(3, 0, testSpec(e.Name()), proxy, trace.NewRNG(1)); err == nil {
			t.Fatalf("%s: Plan(budget 0) should fail", e.Name())
		}
	}
}

func TestUniformEstimateMatchesHandComputation(t *testing.T) {
	plan, err := uniformEstimator{}.Plan(10, 5, testSpec(EstimatorUniform), nil, trace.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	regions := plan.Regions()
	if len(regions) != 5 {
		t.Fatalf("selected %d regions, want 5", len(regions))
	}
	for i := 1; i < len(regions); i++ {
		if regions[i]-regions[i-1] != 2 {
			t.Fatalf("systematic stride broken: %v", regions)
		}
	}
	cpi := map[int]float64{}
	for i, r := range regions {
		cpi[r] = float64(i + 1) // 1..5
	}
	mean, err := plan.Estimate(cpi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-3) > 1e-12 {
		t.Fatalf("mean = %v, want 3", mean)
	}
}

func TestEstimateFailsOnMissingMeasurement(t *testing.T) {
	plan, err := uniformEstimator{}.Plan(10, 5, testSpec(EstimatorUniform), nil, trace.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Estimate(map[int]float64{}); err == nil {
		t.Fatal("Estimate should refuse a partial sample")
	}
}

func TestStratifiedZeroVarianceStrata(t *testing.T) {
	// Proxy splits 20 regions into a cheap half and an expensive half;
	// within each stratum every region has the identical CPI. The
	// stratified estimate must recover the exact population mean.
	proxy := make([]float64, 20)
	for i := range proxy {
		if i >= 10 {
			proxy[i] = 9
		}
	}
	spec := testSpec(EstimatorStratified)
	spec.Strata = 2
	plan, err := stratifiedEstimator{}.Plan(20, 8, spec, proxy, trace.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	cpi := map[int]float64{}
	for _, r := range plan.Regions() {
		if r >= 10 {
			cpi[r] = 4.0
		} else {
			cpi[r] = 1.0
		}
	}
	mean, err := plan.Estimate(cpi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-2.5) > 1e-12 {
		t.Fatalf("mean = %v, want 2.5 (equal halves at 1.0 and 4.0)", mean)
	}
}

func TestStratifiedAllocationCoversEveryStratum(t *testing.T) {
	proxy := make([]float64, 50)
	for i := range proxy {
		proxy[i] = float64(i % 7)
	}
	spec := testSpec(EstimatorStratified)
	spec.Strata = 4
	plan, err := stratifiedEstimator{}.Plan(50, 5, spec, proxy, trace.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	sp := plan.(*stratifiedPlan)
	total := 0
	for h, st := range sp.strata {
		if len(st.sampled) < 1 {
			t.Fatalf("stratum %d got no samples", h)
		}
		total += len(st.sampled)
	}
	if total != 5 {
		t.Fatalf("allocated %d samples, want the budget of 5", total)
	}
	// Budget below the stratum count shrinks the stratification
	// instead of failing.
	spec.Strata = 8
	_, err = stratifiedEstimator{}.Plan(50, 3, spec, proxy, trace.NewRNG(9))
	if err != nil {
		t.Fatalf("budget below strata count should shrink, not fail: %v", err)
	}
}

func TestRankedSetBalancedDraws(t *testing.T) {
	proxy := make([]float64, 40)
	for i := range proxy {
		proxy[i] = float64((i * 13) % 40)
	}
	spec := testSpec(EstimatorRankedSet)
	spec.SetSize = 3
	plan, err := rankedSetEstimator{}.Plan(40, 9, spec, proxy, trace.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	rp := plan.(*rankedSetPlan)
	if len(rp.draws) != 9 || rp.k != 3 {
		t.Fatalf("draws = %d, k = %d; want 9 draws in cycles of 3", len(rp.draws), rp.k)
	}
	cpi := map[int]float64{}
	for _, r := range plan.Regions() {
		cpi[r] = proxy[r] // CPI perfectly follows the proxy
	}
	mean, err := plan.Estimate(cpi)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mean) {
		t.Fatalf("degenerate estimate: mean=%v", mean)
	}
	// A constant response must be estimated exactly.
	for _, r := range plan.Regions() {
		cpi[r] = 2.0
	}
	mean, err = plan.Estimate(cpi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-2) > 1e-12 {
		t.Fatalf("constant response: mean=%v, want 2", mean)
	}
}

func TestSelectionIsDeterministic(t *testing.T) {
	proxy := make([]float64, 60)
	for i := range proxy {
		proxy[i] = float64((i * 29) % 60)
	}
	for _, e := range estimators {
		spec := testSpec(e.Name())
		a, err := e.Plan(60, 12, spec, proxy, trace.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Plan(60, 12, spec, proxy, trace.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := a.Regions(), b.Regions()
		if len(ra) != len(rb) {
			t.Fatalf("%s: selection not deterministic", e.Name())
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: selection not deterministic at %d", e.Name(), i)
			}
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	in := Spec{Estimator: EstimatorRankedSet, RegionSize: 512, Fraction: 0.125, RegionWarmup: 64, Seed: 99, Strata: 6, SetSize: 4}
	out, err := ParseSpec(in.String())
	if err != nil {
		t.Fatal(err)
	}
	if out != in.Normalized() {
		t.Fatalf("round trip: got %+v want %+v", out, in.Normalized())
	}
	// Omitted keys materialize their defaults (including the derived
	// region warmup, which only an explicit warm=0 disables).
	def, err := ParseSpec("est=uniform")
	if err != nil {
		t.Fatal(err)
	}
	if def.Estimator != EstimatorUniform || def.RegionSize != DefaultRegionSize || def.RegionWarmup != DefaultRegionSize/4 {
		t.Fatalf("defaults lost in round trip: %+v", def)
	}
	if _, err := ParseSpec("est=uniform,bogus=1"); err == nil {
		t.Fatal("unknown keys must be rejected")
	}
	if _, err := ParseSpec("est=uniform,frac=2"); err == nil {
		t.Fatal("out-of-range fraction must be rejected")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Estimator: "bogus", RegionSize: 500, Fraction: 0.5, Strata: 4, SetSize: 3},
		{Estimator: EstimatorUniform, RegionSize: 16, Fraction: 0.5, Strata: 4, SetSize: 3},
		{Estimator: EstimatorUniform, RegionSize: 500, Fraction: -0.5, Strata: 4, SetSize: 3},
		{Estimator: EstimatorUniform, RegionSize: 500, Fraction: 1.5, Strata: 4, SetSize: 3},
		{Estimator: EstimatorUniform, RegionSize: 500, Fraction: 0.5, Strata: 0, SetSize: 3},
		{Estimator: EstimatorUniform, RegionSize: 500, Fraction: 0.5, Strata: 4, SetSize: 1},
		{Estimator: EstimatorUniform, RegionSize: 500, Fraction: math.NaN(), Strata: 4, SetSize: 3},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: %+v should fail validation", i, s)
		}
	}
	if err := testSpec(EstimatorUniform).Validate(); err != nil {
		t.Fatalf("normalized default spec invalid: %v", err)
	}
}
