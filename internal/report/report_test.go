package report

import (
	"context"
	"strings"
	"testing"

	"pbsim/internal/assess"
	"pbsim/internal/cluster"
	"pbsim/internal/methodology"
	"pbsim/internal/paperdata"
	"pbsim/internal/pb"
	"pbsim/internal/runner"
	"pbsim/internal/sim"
)

func TestDesignCost(t *testing.T) {
	out := DesignCost(43)
	for _, want := range []string{"44", "88", "One Parameter at-a-time", "Plackett and Burman", "ANOVA", "8.8e+12"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
	if out := DesignCost(1000); !strings.Contains(out, "n/a") {
		t.Errorf("oversized N should render n/a:\n%s", out)
	}
}

func TestDesignMatrixMatchesPaperTable2(t *testing.T) {
	d, _ := pb.NewWithSize(8, false)
	out := DesignMatrix(d)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 9 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[1] != "+1 +1 +1 -1 +1 -1 -1" {
		t.Errorf("first row = %q", lines[1])
	}
	if lines[8] != "-1 -1 -1 -1 -1 -1 -1" {
		t.Errorf("last row = %q", lines[8])
	}
	fd, _ := pb.NewWithSize(8, true)
	fout := DesignMatrix(fd)
	if !strings.Contains(fout, "foldover") {
		t.Error("foldover title missing")
	}
	flines := strings.Split(strings.TrimSpace(fout), "\n")
	if len(flines) != 18 { // title + 8 + separator + 8
		t.Errorf("foldover lines = %d", len(flines))
	}
	// Row 10 (after separator) mirrors row 1.
	if flines[10] != "-1 -1 -1 +1 -1 +1 +1" {
		t.Errorf("first mirrored row = %q", flines[10])
	}
}

func TestWorkedExampleMatchesPaperTable4(t *testing.T) {
	out, err := WorkedExample()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-23", "-67", "-137", "129", "-105", "-225", "73", "Effect", "112"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 output missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadRoster(t *testing.T) {
	out := WorkloadRoster()
	for _, name := range paperdata.Benchmarks {
		if !strings.Contains(out, name) {
			t.Errorf("roster missing %s", name)
		}
	}
	if !strings.Contains(out, "4040.7") {
		t.Error("gcc instruction count missing")
	}
}

func TestParameterValues(t *testing.T) {
	out := ParameterValues()
	for _, want := range []string{"Reorder Buffer Entries", "8", "64", "Perfect", "4-way (fixed)", "0.02 * first"} {
		if !strings.Contains(out, want) {
			t.Errorf("parameter table missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 44 {
		t.Errorf("parameter table too short: %d lines", lines)
	}
}

func suiteForTest(t *testing.T) *pb.Suite {
	t.Helper()
	factors := []pb.Factor{{Name: "A"}, {Name: "B"}, {Name: "C"}}
	resp1 := func(_ context.Context, l []pb.Level) (float64, error) {
		return 100*float64(l[0]) + 10*float64(l[1]), nil
	}
	resp2 := func(_ context.Context, l []pb.Level) (float64, error) {
		return 100*float64(l[1]) + 10*float64(l[2]), nil
	}
	design, err := pb.New(len(factors), true)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := pb.RunSuite(context.Background(), design, factors, []string{"w1", "w2"}, []pb.Response{resp1, resp2}, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func TestRankTable(t *testing.T) {
	suite := suiteForTest(t)
	out := RankTable(suite, "Table 9: test")
	if !strings.Contains(out, "Table 9: test") || !strings.Contains(out, "w1") || !strings.Contains(out, "Sum") {
		t.Errorf("rank table malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+suite.Design.Columns {
		t.Errorf("rank table rows = %d", len(lines))
	}
}

func TestRankTableWithPaper(t *testing.T) {
	suite := suiteForTest(t)
	out := RankTableWithPaper(suite, paperdata.Table9, "compare")
	// Synthetic factor names are not in the paper: the paper columns
	// render as "-".
	if !strings.Contains(out, "-") || !strings.Contains(out, "Sum (paper)") {
		t.Errorf("comparison table malformed:\n%s", out)
	}
}

func TestDistanceAndGroupTables(t *testing.T) {
	m, err := cluster.DistanceMatrix(paperdata.Benchmarks, paperdata.RankVectors(paperdata.Table9))
	if err != nil {
		t.Fatal(err)
	}
	out := DistanceTable(m, "Table 10")
	if !strings.Contains(out, "89.8") {
		t.Errorf("distance table missing the paper's worked example value:\n%s", out)
	}
	groups := cluster.GroupNames(m, cluster.ThresholdGroups(m, paperdata.Threshold))
	gout := GroupTable(groups, paperdata.Threshold)
	if !strings.Contains(gout, "gzip, mesa") {
		t.Errorf("group table missing the gzip/mesa pair:\n%s", gout)
	}
	if !strings.Contains(gout, "63.2") {
		t.Error("threshold missing from title")
	}
}

func TestShiftTable(t *testing.T) {
	shifts := []methodology.EnhancementShift{
		{Factor: pb.Factor{Name: "Int ALUs"}, SumBefore: 118, SumAfter: 137, Shift: 19, RankBefore: 4, RankAfter: 6},
	}
	out := ShiftTable(shifts, "Section 4.3")
	for _, want := range []string{"Int ALUs", "118", "137", "+19"} {
		if !strings.Contains(out, want) {
			t.Errorf("shift table missing %q:\n%s", want, out)
		}
	}
}

func TestSimStats(t *testing.T) {
	s := sim.Stats{Cycles: 200, Instructions: 100, ControlInstrs: 10, Mispredicts: 1, Loads: 30, Stores: 10}
	out := SimStats("gzip", s)
	for _, want := range []string{"gzip", "0.500", "IPC", "DRAM"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats report missing %q:\n%s", want, out)
		}
	}
}

func TestDominanceTable(t *testing.T) {
	suite := suiteForTest(t)
	out, err := DominanceTable(suite, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"w1", "w2", "% of variation"} {
		if !strings.Contains(out, want) {
			t.Errorf("dominance table missing %q:\n%s", want, out)
		}
	}
	// w1's top factor (A) carries ~99% of its variation.
	if !strings.Contains(out, "99.") && !strings.Contains(out, "100") {
		t.Errorf("expected a dominant percentage:\n%s", out)
	}
	// Default topK, and the no-results error path.
	if _, err := DominanceTable(suite, 0); err != nil {
		t.Error(err)
	}
	bare := *suite
	bare.Results = make([]*pb.Result, len(suite.Results))
	if _, err := DominanceTable(&bare, 3); err == nil {
		t.Error("suite without results accepted")
	}
}

func TestTrustTable(t *testing.T) {
	rep, err := assess.Run(context.Background(), assess.Config{
		Surfaces: 8,
		Factors:  8,
		Critical: 3,
		SNR:      10,
		Seed:     1,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := TrustTable(rep)
	for _, want := range []string{
		"Table A", "8 surfaces/family", "8 factors", "3 critical",
		"main-effects", "three-factor", "pb-foldover", "full-factorial",
		"WARN", "ok", "[",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table A missing %q:\n%s", want, out)
		}
	}
	// One row per (family, method) pair.
	wantRows := len(rep.Families)*len(assess.Methods()) + 2 // + title + header + separator - trailing newline
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != wantRows+1 {
		t.Errorf("Table A has %d lines, want %d:\n%s", len(lines), wantRows+1, out)
	}
}

func TestTrustTableSkippedMethods(t *testing.T) {
	rep, err := assess.Run(context.Background(), assess.Config{
		Surfaces: 2,
		Factors:  9,
		Critical: 3,
		Seed:     1,
		Budget:   30, // full factorial (512 runs) is out of budget
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := TrustTable(rep)
	if !strings.Contains(out, "skipped (2 over budget)") {
		t.Errorf("skipped method not surfaced:\n%s", out)
	}
}
