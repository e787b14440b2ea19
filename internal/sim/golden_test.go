package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbsim/internal/pb"
)

var update = flag.Bool("update", false, "rewrite testdata/stats.golden from the current simulator output")

// goldenBenchmarks span the workload classes: integer, memory-bound,
// floating-point and branch-heavy.
var goldenBenchmarks = []string{"gzip", "mcf", "art", "twolf"}

// TestStatsGolden pins the simulator's exact output. Every Stats field
// of a spread of runs is printed with %+v, so a field added to Stats
// joins the pin by itself. The cases cover foldover design rows (both
// memory latencies, all ROB and LSQ sizes, every predictor), the
// degenerate machines, precomputed entries that issue at dispatch, and
// functional warming followed by windowed RunMore measurement. A
// change to cycle timing must show up as a reviewed diff of
// testdata/stats.golden; a pure speed-up must leave it byte-identical.
func TestStatsGolden(t *testing.T) {
	var b strings.Builder
	record := func(name string, s Stats) { fmt.Fprintf(&b, "%s: %+v\n", name, s) }

	design, err := pb.New(len(Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range goldenBenchmarks {
		for row := 0; row < design.Runs(); row += 11 {
			cpu, err := New(ConfigForLevels(design.Row(row)), testGen(t, bench), nil)
			if err != nil {
				t.Fatal(err)
			}
			cpu.PrewarmMemory()
			s, err := cpu.RunWithWarmup(1000, 3000)
			if err != nil {
				t.Fatalf("%s row %d: %v", bench, row, err)
			}
			record(fmt.Sprintf("%s row %d", bench, row), s)
		}
	}

	for _, tc := range degenerateConfigs {
		cfg := Default()
		tc.mutate(&cfg)
		record("parser "+tc.name, runConfig(t, cfg, "parser", 4000))
	}

	cpu, err := New(Default(), testGen(t, "gzip"), &shortcutAll{})
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	s, err := cpu.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	record("gzip shortcut", s)

	cfg := Default()
	cfg.ROBEntries, cfg.MemLatFirst = 64, 200
	cpu, err = New(cfg, testGen(t, "mcf"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	cpu.WarmFunctional(5000)
	for i, n := range []int64{2000, 500, 3000} {
		s, err := cpu.RunMore(n)
		if err != nil {
			t.Fatal(err)
		}
		record(fmt.Sprintf("mcf warm-functional window %d", i), s)
	}

	checkStatsGolden(t, filepath.Join("testdata", "stats.golden"), b.String())
}

func checkStatsGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d drifted (rerun with -update only if the timing change is intended):\ngot:  %s\nwant: %s", path, i+1, g, w)
		}
	}
}
