package methodology

import (
	"context"
	"errors"
	"math"
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/runner"
)

// syntheticFactors builds n generic factors.
func syntheticFactors(n int) []pb.Factor {
	fs := make([]pb.Factor, n)
	for i := range fs {
		fs[i] = pb.Factor{Name: string(rune('A' + i))}
	}
	return fs
}

// weightedResponse returns a response with known factor weights and an
// optional interaction between factors 0 and 1.
func weightedResponse(weights []float64, interact float64) pb.Response {
	return func(_ context.Context, levels []pb.Level) (float64, error) {
		y := 1000.0
		for i, w := range weights {
			y += w * float64(levels[i])
		}
		y += interact * float64(levels[0]) * float64(levels[1])
		return y, nil
	}
}

// runSuite runs a PB suite over the smallest design for factors.
func runSuite(t *testing.T, factors []pb.Factor, foldover bool, benchmarks []string, responses ...pb.Response) *pb.Suite {
	t.Helper()
	design, err := pb.New(len(factors), foldover)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := pb.RunSuite(context.Background(), design, factors, benchmarks, responses, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func TestScreenSeparatesCriticalFactors(t *testing.T) {
	weights := []float64{100, 80, 60, 1, 0.5, 0.2, 0}
	factors := syntheticFactors(len(weights))
	resp := weightedResponse(weights, 0)
	scr := ScreenFromSuite(runSuite(t, factors, true, []string{"b1", "b2"}, resp, resp), 0)
	if len(scr.Critical) == 0 {
		t.Fatal("no critical factors found")
	}
	// The gap heuristic may cut conservatively, but everything it
	// flags must come from the heavy factors, in significance order.
	want := map[int]bool{0: true, 1: true, 2: true}
	for _, f := range scr.Critical {
		if !want[f] {
			t.Errorf("factor %d wrongly deemed critical", f)
		}
	}
	if scr.Critical[0] != 0 {
		t.Errorf("most critical factor = %d, want 0", scr.Critical[0])
	}
	// The zero-weight factors are never critical.
	for _, f := range scr.NonCritical {
		delete(want, f)
	}
	if len(scr.Critical)+len(scr.NonCritical) != scr.Suite.Design.Columns {
		t.Error("screening lost factors")
	}
}

func TestScreenMaxCriticalBound(t *testing.T) {
	weights := []float64{100, 80, 60, 40}
	factors := syntheticFactors(len(weights))
	resp := weightedResponse(weights, 0)
	scr := ScreenFromSuite(runSuite(t, factors, true, []string{"b"}, resp), 2)
	if len(scr.Critical) > 2 {
		t.Errorf("bound ignored: %v", scr.Critical)
	}
}

func TestSensitivityAnalysisRecoversEffects(t *testing.T) {
	weights := []float64{50, 30, 0, 0, 0}
	resp := weightedResponse(weights, 10)
	sens, err := SensitivityAnalysis(context.Background(), 5, []int{0, 1}, resp, pb.Low)
	if err != nil {
		t.Fatal(err)
	}
	main := sens.ANOVA.MainEffects()
	if math.Abs(main[0].Effect-100) > 1e-9 { // high-low change = 2w
		t.Errorf("effect A = %g, want 100", main[0].Effect)
	}
	if math.Abs(main[1].Effect-60) > 1e-9 {
		t.Errorf("effect B = %g, want 60", main[1].Effect)
	}
	// The 0x1 interaction must be visible to the full factorial.
	share := sens.ANOVA.InteractionShare()
	if share <= 0 {
		t.Error("interaction share should be positive")
	}
	// SS decomposition: interaction effect = 2*10.
	found := false
	for _, term := range sens.ANOVA.Terms {
		if len(term.Factors) == 2 {
			if math.Abs(term.Effect-20) > 1e-9 {
				t.Errorf("interaction effect = %g, want 20", term.Effect)
			}
			found = true
		}
	}
	if !found {
		t.Error("interaction term missing")
	}
}

func TestSensitivityAnalysisValidation(t *testing.T) {
	ctx := context.Background()
	resp := weightedResponse([]float64{1}, 0)
	if _, err := SensitivityAnalysis(ctx, 5, nil, resp, pb.Low); err == nil {
		t.Error("empty critical list accepted")
	}
	if _, err := SensitivityAnalysis(ctx, 5, []int{7}, resp, pb.Low); err == nil {
		t.Error("out-of-range index accepted")
	}
	big := make([]int, 13)
	if _, err := SensitivityAnalysis(ctx, 20, big, resp, pb.Low); err == nil {
		t.Error("oversized factorial accepted")
	}
	// A failed run fails the analysis with the response's error instead
	// of feeding a NaN into the ANOVA.
	errRow := errors.New("row cannot be simulated")
	failing := func(_ context.Context, levels []pb.Level) (float64, error) {
		if levels[1] == pb.High {
			return 0, errRow
		}
		return 1, nil
	}
	sens, err := SensitivityAnalysis(ctx, 5, []int{0, 1}, failing, pb.Low)
	if !errors.Is(err, errRow) || sens != nil {
		t.Errorf("failing response = %v, %v; want nil and an error wrapping %v", sens, err, errRow)
	}
}

func TestClassify(t *testing.T) {
	// Two benchmarks sensitive to the same factor group, one to a
	// different one: expect two groups.
	weights1 := []float64{100, 90, 1, 1}
	weights2 := []float64{95, 85, 2, 1}
	weights3 := []float64{1, 2, 100, 90}
	factors := syntheticFactors(4)
	suite := runSuite(t, factors, true, []string{"x1", "x2", "y"},
		weightedResponse(weights1, 0), weightedResponse(weights2, 0), weightedResponse(weights3, 0))
	// x1 and x2 have identical rank vectors (distance 0); y differs.
	c, err := Classify(suite, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Groups) != 2 {
		t.Fatalf("groups = %v, want 2", c.Groups)
	}
	if len(c.Representatives) != 2 {
		t.Errorf("representatives = %v", c.Representatives)
	}
	if len(c.Groups[0]) != 2 {
		t.Errorf("first group should pair x1 and x2: %v", c.Groups)
	}
}

func TestCompareEnhancement(t *testing.T) {
	factors := syntheticFactors(3)
	before := runSuite(t, factors, true, []string{"b"}, weightedResponse([]float64{100, 50, 10}, 0))
	// The "enhancement" removes most of factor 1's influence.
	after := runSuite(t, factors, true, []string{"b"}, weightedResponse([]float64{100, 2, 10}, 0))
	shifts, err := CompareEnhancement(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(shifts) != before.Design.Columns {
		t.Fatalf("%d shifts", len(shifts))
	}
	// Ordered by before-significance: factor 0 first.
	if shifts[0].Factor.Name != "A" || shifts[0].RankBefore != 1 {
		t.Errorf("first shift = %+v", shifts[0])
	}
	// Factor B lost significance: positive shift, worse rank after.
	var bShift EnhancementShift
	for _, s := range shifts {
		if s.Factor.Name == "B" {
			bShift = s
		}
	}
	if bShift.Shift <= 0 {
		t.Errorf("B should have lost significance: %+v", bShift)
	}
	if bShift.RankAfter <= bShift.RankBefore {
		t.Errorf("B rank should worsen: %+v", bShift)
	}
	big, err := BiggestShift(shifts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if big.Factor.Name != "B" {
		t.Errorf("biggest shift = %q, want B", big.Factor.Name)
	}
	// topN out of range falls back to all.
	if _, err := BiggestShift(shifts, 0); err != nil {
		t.Error(err)
	}
	if _, err := BiggestShift(nil, 1); err == nil {
		t.Error("empty shifts accepted")
	}
}

func TestCompareEnhancementMismatch(t *testing.T) {
	fa := syntheticFactors(3)
	fb := syntheticFactors(8)
	resp := weightedResponse([]float64{1, 1, 1}, 0)
	a := runSuite(t, fa, false, []string{"b"}, resp)
	b := runSuite(t, fb, false, []string{"b"}, resp)
	if _, err := CompareEnhancement(a, b); err == nil {
		t.Error("mismatched suites accepted")
	}
}
