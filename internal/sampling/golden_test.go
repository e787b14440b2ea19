package sampling

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/estimates.golden from the current sampler output")

// TestEstimatesGolden pins every estimator's sampled response, bit for
// bit: the extrapolated cycles and CPI as %.17g, and the cost fields a
// campaign reports. It covers the three estimators on gzip, mcf and
// vortex, each on the all-low, the default and the all-high machine.
// A change to selection or to an estimator's mean must show up as a
// reviewed diff of testdata/estimates.golden.
func TestEstimatesGolden(t *testing.T) {
	const warmup, n = 5000, 20000
	configs := []struct {
		name string
		cfg  sim.Config
	}{
		{"all-low", uniformLevels(pb.Low)},
		{"default", sim.Default()},
		{"all-high", uniformLevels(pb.High)},
	}
	var b strings.Builder
	for _, est := range Names() {
		spec, err := ParseSpec("est=" + est + ",region=1000,frac=0.2")
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range []string{"gzip", "mcf", "vortex"} {
			gen := testGen(t, bench)
			for _, c := range configs {
				res, err := Run(c.cfg, gen, warmup, n, spec)
				if err != nil {
					t.Fatalf("%s %s %s: %v", est, bench, c.name, err)
				}
				fmt.Fprintf(&b, "%s %s %s: cycles %.17g cpi %.17g detailed %d functional %d regions %d\n",
					est, bench, c.name, res.Cycles, res.CPI,
					res.DetailedInstructions, res.FunctionalInstructions, res.SampledRegions)
			}
		}
	}
	path := filepath.Join("testdata", "estimates.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("sampled estimates drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// uniformLevels is the machine with every PB factor at lv.
func uniformLevels(lv pb.Level) sim.Config {
	levels := make([]pb.Level, len(sim.Factors()))
	for i := range levels {
		levels[i] = lv
	}
	return sim.ConfigForLevels(levels)
}
