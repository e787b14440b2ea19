package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFullFactorialShape(t *testing.T) {
	rows, err := FullFactorial(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("2^3 rows = %d, want 8", len(rows))
	}
	for i, row := range rows {
		if len(row) != 3 {
			t.Fatalf("row %d has %d levels", i, len(row))
		}
	}
	// Row 0 all-low, row 7 all-high, row 5 = binary 101.
	for j, want := range []int8{-1, -1, -1} {
		if rows[0][j] != want {
			t.Errorf("row 0 factor %d = %d", j, rows[0][j])
		}
	}
	for j, want := range []int8{1, 1, 1} {
		if rows[7][j] != want {
			t.Errorf("row 7 factor %d = %d", j, rows[7][j])
		}
	}
	for j, want := range []int8{1, -1, 1} {
		if rows[5][j] != want {
			t.Errorf("row 5 factor %d = %d", j, rows[5][j])
		}
	}
	if _, err := FullFactorial(0); err == nil {
		t.Error("FullFactorial(0) should fail")
	}
	if _, err := FullFactorial(21); err == nil {
		t.Error("FullFactorial(21) should fail")
	}
}

func TestANOVAAdditiveModel(t *testing.T) {
	// y = 100 + 10*A + 3*B, no interaction: effects must be exactly
	// 20 and 6 (effect = high-low change = 2*coefficient) and the AxB
	// interaction share must be zero.
	rows, _ := FullFactorial(2)
	responses := make([]float64, len(rows))
	for i, r := range rows {
		responses[i] = 100 + 10*float64(r[0]) + 3*float64(r[1])
	}
	res, err := ANOVA(2, responses)
	if err != nil {
		t.Fatal(err)
	}
	main := res.MainEffects()
	if math.Abs(main[0].Effect-20) > 1e-12 {
		t.Errorf("effect(A) = %g, want 20", main[0].Effect)
	}
	if math.Abs(main[1].Effect-6) > 1e-12 {
		t.Errorf("effect(B) = %g, want 6", main[1].Effect)
	}
	if share := res.InteractionShare(); math.Abs(share) > 1e-9 {
		t.Errorf("interaction share = %g, want 0", share)
	}
	if res.GrandMean != 100 {
		t.Errorf("grand mean = %g, want 100", res.GrandMean)
	}
}

func TestANOVAPureInteraction(t *testing.T) {
	// y = 5*A*B: all variation must land on the AxB term.
	rows, _ := FullFactorial(2)
	responses := make([]float64, len(rows))
	for i, r := range rows {
		responses[i] = 5 * float64(r[0]) * float64(r[1])
	}
	res, err := ANOVA(2, responses)
	if err != nil {
		t.Fatal(err)
	}
	top := res.Terms[0]
	if len(top.Factors) != 2 {
		t.Fatalf("dominant term is %v, want the AxB interaction", top.Factors)
	}
	if math.Abs(top.Percent-100) > 1e-9 {
		t.Errorf("AxB percent = %g, want 100", top.Percent)
	}
	if math.Abs(res.InteractionShare()-100) > 1e-9 {
		t.Errorf("interaction share = %g, want 100", res.InteractionShare())
	}
}

func TestANOVASumOfSquaresDecomposition(t *testing.T) {
	// For any single-replicate 2^k experiment, the term SS must sum
	// exactly to the total SS (orthogonal decomposition).
	f := func(seed int64) bool {
		responses := make([]float64, 16)
		s := uint64(seed)
		for i := range responses {
			s = s*6364136223846793005 + 1442695040888963407
			responses[i] = float64(s%10000) / 10
		}
		res, err := ANOVA(4, responses)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, term := range res.Terms {
			sum += term.SS
		}
		return math.Abs(sum-res.TotalSS) <= 1e-6*(1+res.TotalSS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestANOVAResponseLengthCheck(t *testing.T) {
	if _, err := ANOVA(3, make([]float64, 7)); err == nil {
		t.Error("ANOVA should reject a short response vector")
	}
}

func TestTermLabel(t *testing.T) {
	term := ANOVATerm{Factors: []int{0, 2}}
	if got := term.Label(nil); got != "AxC" {
		t.Errorf("Label(nil) = %q, want AxC", got)
	}
	if got := term.Label([]string{"ROB", "LSQ", "L2"}); got != "ROBxL2" {
		t.Errorf("Label(names) = %q", got)
	}
}

func TestCountSimulations(t *testing.T) {
	c := CountSimulations(43, 88)
	if c.OneAtATime != 44 {
		t.Errorf("one-at-a-time = %d, want 44", c.OneAtATime)
	}
	if c.PlackettBurman != 88 {
		t.Errorf("PB = %d, want 88", c.PlackettBurman)
	}
	if c.FullFactorial != math.Pow(2, 43) {
		t.Errorf("full factorial = %g", c.FullFactorial)
	}
}

func TestOneAtATime(t *testing.T) {
	// y = 10*A + 2*B: at an all-low base, flipping A changes y by +20.
	resp := func(levels []int8) (float64, error) {
		return 10*float64(levels[0]) + 2*float64(levels[1]), nil
	}
	res, err := OneAtATime([]int8{-1, -1}, resp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs() != 3 {
		t.Errorf("runs = %d, want 3", res.Runs())
	}
	if res.Deltas[0] != 20 || res.Deltas[1] != 4 {
		t.Errorf("deltas = %v, want [20 4]", res.Deltas)
	}
	if _, err := OneAtATime(nil, resp); err == nil {
		t.Error("empty base should fail")
	}
	if _, err := OneAtATime([]int8{0}, resp); err == nil {
		t.Error("invalid base level should fail")
	}
}

func TestOneAtATimeMissesInteractions(t *testing.T) {
	// The paper's Section 2.1 failure mode, constructed explicitly:
	// y = A*B. At an all-low base (A=B=-1, y=1), flipping either
	// factor alone gives y=-1, so both deltas are -2 -- but flipping
	// both gives y=1 again. The one-at-a-time design cannot see that
	// the effect of A depends entirely on B. The ANOVA on the same
	// response allocates 100% of variation to AxB.
	resp := func(levels []int8) (float64, error) {
		return float64(levels[0]) * float64(levels[1]), nil
	}
	oat, err := OneAtATime([]int8{-1, -1}, resp)
	if err != nil {
		t.Fatal(err)
	}
	// One-at-a-time sees identical, symmetric "main effects"...
	if oat.Deltas[0] != -2 || oat.Deltas[1] != -2 {
		t.Fatalf("deltas = %v", oat.Deltas)
	}
	// ...while the truth is a pure interaction:
	rows, _ := FullFactorial(2)
	responses := make([]float64, len(rows))
	for i, r := range rows {
		responses[i], _ = resp(r)
	}
	res, _ := ANOVA(2, responses)
	if res.InteractionShare() < 99.999 {
		t.Errorf("interaction share = %g, want 100", res.InteractionShare())
	}
	main := res.MainEffects()
	if main[0].Effect != 0 || main[1].Effect != 0 {
		t.Errorf("true main effects = %g, %g, want 0, 0", main[0].Effect, main[1].Effect)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %g", v)
	}
	if s := StdDev(xs); math.Abs(s-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("StdDev = %g", s)
	}
	if m := Median(xs); m != 4.5 {
		t.Errorf("Median = %g", m)
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd Median = %g", m)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 || Median(nil) != 0 {
		t.Error("empty-input conventions violated")
	}
	gm, err := GeometricMean([]float64{1, 4, 16})
	if err != nil || math.Abs(gm-4) > 1e-12 {
		t.Errorf("GeometricMean = %g, %v", gm, err)
	}
	if _, err := GeometricMean([]float64{1, -2}); err == nil {
		t.Error("GeometricMean should reject non-positive samples")
	}
	if _, err := GeometricMean(nil); err == nil {
		t.Error("GeometricMean should reject empty input")
	}
	hm, err := HarmonicMean([]float64{1, 1, 2})
	if err != nil || math.Abs(hm-1.2) > 1e-12 {
		t.Errorf("HarmonicMean = %g, %v", hm, err)
	}
	if _, err := HarmonicMean(nil); err == nil {
		t.Error("HarmonicMean should reject empty input")
	}
	if _, err := HarmonicMean([]float64{0}); err == nil {
		t.Error("HarmonicMean should reject zero samples")
	}
	if s := Speedup(20, 10); s != 2 {
		t.Errorf("Speedup = %g", s)
	}
	if s := Speedup(20, 0); !math.IsInf(s, 1) {
		t.Errorf("Speedup by zero = %g", s)
	}
}
