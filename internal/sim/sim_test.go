package sim

import (
	"testing"

	"pbsim/internal/paperdata"
	"pbsim/internal/pb"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

func testGen(t *testing.T, name string) *trace.Generator {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func runConfig(t *testing.T, cfg Config, bench string, n int64) Stats {
	t.Helper()
	cpu, err := New(cfg, testGen(t, bench), nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	stats, err := cpu.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Width != 4 {
		t.Errorf("width = %d, the paper fixes it at 4", cfg.Width)
	}
}

func TestConfigDerivedParameters(t *testing.T) {
	cfg := Default()
	cfg.ROBEntries = 8
	cfg.LSQRatio = 0.25
	if got := cfg.LSQEntries(); got != 2 {
		t.Errorf("LSQ = %d, want 2 (0.25 x 8)", got)
	}
	cfg.ROBEntries = 64
	cfg.LSQRatio = 1.0
	if got := cfg.LSQEntries(); got != 64 {
		t.Errorf("LSQ = %d, want 64", got)
	}
	cfg.ROBEntries = 1
	cfg.LSQRatio = 0.25
	if got := cfg.LSQEntries(); got != 1 {
		t.Errorf("LSQ = %d, want clamp to 1", got)
	}
	cfg.MemLatFirst = 200
	if got := cfg.MemLatRest(); got != 4 {
		t.Errorf("rest latency = %d, want 4 (0.02 x 200)", got)
	}
	cfg.MemLatFirst = 50
	if got := cfg.MemLatRest(); got != 1 {
		t.Errorf("rest latency = %d, want 1 (0.02 x 50)", got)
	}
	cfg.MemLatFirst = 10
	if got := cfg.MemLatRest(); got != 1 {
		t.Errorf("rest latency = %d, want clamp to 1", got)
	}
}

func TestConfigValidateRejectsBadFields(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.IFQEntries = 0 },
		func(c *Config) { c.MispredictPenalty = -1 },
		func(c *Config) { c.RASEntries = 0 },
		func(c *Config) { c.BTBEntries = 0 },
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.ROBEntries = 0 },
		func(c *Config) { c.LSQRatio = 0 },
		func(c *Config) { c.MemPorts = 0 },
		func(c *Config) { c.IntALUs = 0 },
		func(c *Config) { c.FPALUs = 0 },
		func(c *Config) { c.IntMultDivs = 0 },
		func(c *Config) { c.FPMultDivs = 0 },
		func(c *Config) { c.L1ISizeKB = 0 },
		func(c *Config) { c.L1DLat = 0 },
		func(c *Config) { c.L2Lat = 0 },
		func(c *Config) { c.MemLatFirst = 0 },
		func(c *Config) { c.MemBWBytes = 0 },
		func(c *Config) { c.ITLBEntries = 0 },
		func(c *Config) { c.DTLBEntries = 0 },
		func(c *Config) { c.PageKB = 0 },
	}
	for i, mutate := range mutations {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := New(cfg, testGen(t, "gzip"), nil); err == nil {
			t.Errorf("mutation %d: New accepted invalid config", i)
		}
	}
}

func TestPBFactorsMatchPaperTable9(t *testing.T) {
	factors := PBFactors()
	if len(factors) != 41 {
		t.Fatalf("%d factors, the paper varies 41", len(factors))
	}
	// Every factor name must appear in the paper's Table 9 (which uses
	// "RUU Entries" for the reorder buffer in Table 12 but "Reorder
	// Buffer Entries" in Table 9), and vice versa every non-dummy
	// Table 9 row must be one of our factors.
	paper := make(map[string]bool)
	for _, row := range paperdata.Table9 {
		paper[row.Parameter] = true
	}
	ours := make(map[string]bool)
	for _, f := range factors {
		if ours[f.Factor.Name] {
			t.Errorf("duplicate factor %q", f.Factor.Name)
		}
		ours[f.Factor.Name] = true
		if !paper[f.Factor.Name] {
			t.Errorf("factor %q not a Table 9 parameter", f.Factor.Name)
		}
	}
	for name := range paper {
		if name == "Dummy Factor #1" || name == "Dummy Factor #2" {
			continue
		}
		if !ours[name] {
			t.Errorf("paper parameter %q missing from PBFactors", name)
		}
	}
	if len(Factors()) != 41 {
		t.Errorf("Factors() length = %d", len(Factors()))
	}
}

func TestConfigForLevels(t *testing.T) {
	low := make([]pb.Level, 43)
	high := make([]pb.Level, 43)
	for i := range low {
		low[i] = pb.Low
		high[i] = pb.High
	}
	lo := ConfigForLevels(low)
	hi := ConfigForLevels(high)
	if lo.ROBEntries != 8 || hi.ROBEntries != 64 {
		t.Errorf("ROB: %d/%d, want 8/64", lo.ROBEntries, hi.ROBEntries)
	}
	if lo.Predictor != PredTwoLevel || hi.Predictor != PredPerfect {
		t.Errorf("predictor: %v/%v", lo.Predictor, hi.Predictor)
	}
	if lo.MispredictPenalty != 10 || hi.MispredictPenalty != 2 {
		t.Errorf("penalty: %d/%d", lo.MispredictPenalty, hi.MispredictPenalty)
	}
	if lo.L2SizeKB != 256 || hi.L2SizeKB != 8192 {
		t.Errorf("L2 size: %d/%d", lo.L2SizeKB, hi.L2SizeKB)
	}
	if lo.MemLatFirst != 200 || hi.MemLatFirst != 50 {
		t.Errorf("memlat: %d/%d", lo.MemLatFirst, hi.MemLatFirst)
	}
	if lo.LSQRatio != 0.25 || hi.LSQRatio != 1.0 {
		t.Errorf("LSQ ratio: %g/%g", lo.LSQRatio, hi.LSQRatio)
	}
	if lo.SpecUpdate || !hi.SpecUpdate {
		t.Errorf("spec update: %v/%v", lo.SpecUpdate, hi.SpecUpdate)
	}
	if lo.BTBAssoc != 2 || hi.BTBAssoc != FullyAssociative {
		t.Errorf("BTB assoc: %d/%d", lo.BTBAssoc, hi.BTBAssoc)
	}
	if lo.PageKB != 4 || hi.PageKB != 4096 {
		t.Errorf("page: %d/%d", lo.PageKB, hi.PageKB)
	}
	// Width stays fixed regardless of levels.
	if lo.Width != 4 || hi.Width != 4 {
		t.Errorf("width must stay 4: %d/%d", lo.Width, hi.Width)
	}
	// Both extremes must be valid, simulatable configurations.
	for _, cfg := range []Config{lo, hi} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("extreme config invalid: %v", err)
		}
	}
}

func TestConfigForLevelsIgnoresDummyColumns(t *testing.T) {
	a := make([]pb.Level, 43)
	b := make([]pb.Level, 43)
	for i := range a {
		a[i] = pb.High
		b[i] = pb.High
	}
	b[41] = pb.Low
	b[42] = pb.Low
	if ConfigForLevels(a) != ConfigForLevels(b) {
		t.Error("dummy columns changed the configuration")
	}
}

func TestRunDeterminism(t *testing.T) {
	s1 := runConfig(t, Default(), "gzip", 20000)
	s2 := runConfig(t, Default(), "gzip", 20000)
	if s1 != s2 {
		t.Errorf("identical runs diverged:\n%+v\n%+v", s1, s2)
	}
}

func TestRunBasicSanity(t *testing.T) {
	s := runConfig(t, Default(), "gzip", 20000)
	if s.Instructions != 20000 {
		t.Errorf("instructions = %d", s.Instructions)
	}
	if ipc := s.IPC(); ipc < 0.05 || ipc > 4 {
		t.Errorf("IPC = %.3f out of plausible range", ipc)
	}
	if s.ControlInstrs == 0 || s.Loads == 0 || s.Stores == 0 {
		t.Errorf("missing instruction classes: %+v", s)
	}
	if s.L1D.Accesses == 0 || s.L1I.Accesses == 0 {
		t.Error("caches never accessed")
	}
	if s.IntALUOps == 0 {
		t.Error("no int ALU operations")
	}
}

func TestPerfectPredictorNeverMispredicts(t *testing.T) {
	cfg := Default()
	cfg.Predictor = PredPerfect
	s := runConfig(t, cfg, "twolf", 20000)
	if s.Mispredicts != 0 {
		t.Errorf("perfect predictor mispredicted %d times", s.Mispredicts)
	}
}

func TestPredictorKindsRun(t *testing.T) {
	for _, k := range []PredictorKind{PredTwoLevel, PredPerfect} {
		cfg := Default()
		cfg.Predictor = k
		s := runConfig(t, cfg, "gzip", 5000)
		if s.Instructions != 5000 {
			t.Errorf("%v: incomplete run", k)
		}
	}
	if PredTwoLevel.String() != "2-Level" || PredPerfect.String() != "Perfect" {
		t.Error("PredictorKind names")
	}
	if PredictorKind(9).String() == "" {
		t.Error("unknown kind name")
	}
}

func TestMonotonicity(t *testing.T) {
	// Improving one resource while holding the workload fixed must not
	// slow the machine down (these hold for our deterministic traces
	// and LRU caches).
	base := Default()
	cases := []struct {
		name    string
		bench   string
		better  func(*Config)
		worse   func(*Config)
		minGain float64 // required relative improvement (0 = just not worse)
	}{
		{"perfect bpred", "twolf", func(c *Config) { c.Predictor = PredPerfect }, func(c *Config) { c.Predictor = PredTwoLevel }, 0.01},
		{"ROB 64 vs 8", "gzip", func(c *Config) { c.ROBEntries = 64 }, func(c *Config) { c.ROBEntries = 8 }, 0.01},
		{"memlat 50 vs 200", "mcf", func(c *Config) { c.MemLatFirst = 50 }, func(c *Config) { c.MemLatFirst = 200 }, 0.01},
		{"L1D lat 1 vs 4", "gzip", func(c *Config) { c.L1DLat = 1 }, func(c *Config) { c.L1DLat = 4 }, 0.001},
		{"L2 8MB vs 256KB", "art", func(c *Config) { c.L2SizeKB = 8192 }, func(c *Config) { c.L2SizeKB = 256 }, 0.01},
		{"4 int ALUs vs 1", "gzip", func(c *Config) { c.IntALUs = 4 }, func(c *Config) { c.IntALUs = 1 }, 0.001},
	}
	for _, c := range cases {
		good := base
		c.better(&good)
		bad := base
		c.worse(&bad)
		sg := runConfig(t, good, c.bench, 15000)
		sb := runConfig(t, bad, c.bench, 15000)
		if float64(sg.Cycles) > float64(sb.Cycles)*(1-c.minGain) {
			t.Errorf("%s: better config %d cycles, worse config %d cycles", c.name, sg.Cycles, sb.Cycles)
		}
	}
}

func TestAllHighFasterThanAllLow(t *testing.T) {
	low := make([]pb.Level, 43)
	high := make([]pb.Level, 43)
	for i := range low {
		low[i] = pb.Low
		high[i] = pb.High
	}
	for _, bench := range []string{"gzip", "mcf"} {
		sl := runConfig(t, ConfigForLevels(low), bench, 10000)
		sh := runConfig(t, ConfigForLevels(high), bench, 10000)
		if sh.Cycles*2 > sl.Cycles {
			t.Errorf("%s: all-high (%d cycles) should be much faster than all-low (%d)", bench, sh.Cycles, sl.Cycles)
		}
	}
}

func TestRunRejectsBadCounts(t *testing.T) {
	cpu, err := New(Default(), testGen(t, "gzip"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(0); err == nil {
		t.Error("Run(0) accepted")
	}
	if _, err := cpu.RunWithWarmup(-1, 100); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := cpu.RunWithWarmup(10, 0); err == nil {
		t.Error("zero measure accepted")
	}
}

func TestWarmupAccounting(t *testing.T) {
	// cycles(warmup) + cycles(measured) must equal cycles of a single
	// uninterrupted run of the same total length.
	full, err := New(Default(), testGen(t, "parser"), nil)
	if err != nil {
		t.Fatal(err)
	}
	sFull, err := full.Run(30000)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(Default(), testGen(t, "parser"), nil)
	s, err := fresh.RunWithWarmup(10000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Instructions != 20000 {
		t.Errorf("measured instructions = %d, want 20000", s.Instructions)
	}
	if s.Cycles <= 0 || s.Cycles >= sFull.Cycles {
		t.Errorf("measured cycles %d out of range (full run %d)", s.Cycles, sFull.Cycles)
	}
	// The warmed-up run covers the same stream: total cycles match the
	// uninterrupted run exactly.
	if fresh.cycle != sFull.Cycles {
		t.Errorf("warmup+measure total %d cycles, full run %d", fresh.cycle, sFull.Cycles)
	}
}

func TestPrewarmReducesColdMisses(t *testing.T) {
	cold, _ := New(Default(), testGen(t, "gzip"), nil)
	sCold, err := cold.Run(15000)
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := New(Default(), testGen(t, "gzip"), nil)
	warm.PrewarmMemory()
	sWarm, err := warm.Run(15000)
	if err != nil {
		t.Fatal(err)
	}
	if sWarm.DRAMAccesses >= sCold.DRAMAccesses {
		t.Errorf("prewarm did not reduce DRAM traffic: %d vs %d", sWarm.DRAMAccesses, sCold.DRAMAccesses)
	}
	if sWarm.Cycles >= sCold.Cycles {
		t.Errorf("prewarm did not speed up the run: %d vs %d", sWarm.Cycles, sCold.Cycles)
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.MispredictRate() != 0 {
		t.Error("zero-stats helpers")
	}
	s.Cycles = 100
	s.Instructions = 150
	if s.IPC() != 1.5 {
		t.Errorf("IPC = %g", s.IPC())
	}
	s.ControlInstrs = 10
	s.Mispredicts = 2
	if s.MispredictRate() != 0.2 {
		t.Errorf("mispredict rate = %g", s.MispredictRate())
	}
}

// shortcutAll satisfies every lookup: an upper bound on enhancement
// benefit.
type shortcutAll struct{ hits, observes int }

func (s *shortcutAll) Hit(uint32) bool { s.hits++; return true }
func (s *shortcutAll) Observe(uint32)  { s.observes++ }

func TestComputeShortcutSpeedsUpRun(t *testing.T) {
	sBase := runConfig(t, Default(), "gzip", 15000)
	sc := &shortcutAll{}
	cpu, err := New(Default(), testGen(t, "gzip"), sc)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	sEnh, err := cpu.Run(15000)
	if err != nil {
		t.Fatal(err)
	}
	if sEnh.PrecompHits == 0 {
		t.Fatal("shortcut never hit")
	}
	if sc.hits == 0 || sc.observes == 0 {
		t.Errorf("shortcut calls: hits=%d observes=%d", sc.hits, sc.observes)
	}
	if sEnh.Cycles >= sBase.Cycles {
		t.Errorf("enhancement did not help: %d vs %d cycles", sEnh.Cycles, sBase.Cycles)
	}
	// Fewer int-ALU operations execute with the shortcut active.
	if sEnh.IntALUOps >= sBase.IntALUOps {
		t.Errorf("shortcut did not offload ALUs: %d vs %d ops", sEnh.IntALUOps, sBase.IntALUOps)
	}
}

func TestLargeROBConfigurations(t *testing.T) {
	// Regression test: ROB sizes beyond the dependency-ring margin
	// must simulate correctly (the ring is sized dynamically).
	for _, rob := range []int{1, 8, 64, 192, 256, 500} {
		cfg := Default()
		cfg.ROBEntries = rob
		s := runConfig(t, cfg, "gzip", 5000)
		if s.Instructions != 5000 {
			t.Errorf("ROB %d: incomplete run", rob)
		}
	}
}

func TestMispredictBreakdownConsistent(t *testing.T) {
	s := runConfig(t, Default(), "twolf", 20000)
	if s.Mispredicts == 0 {
		t.Fatal("expected some mispredictions on twolf")
	}
	// Causes are counted at prediction time, totals at commit, so the
	// breakdown can lead the total by at most the in-flight window.
	sum := s.MispredDirection + s.MispredBTB + s.MispredRAS
	if sum < s.Mispredicts || sum > s.Mispredicts+64 {
		t.Errorf("cause breakdown %d inconsistent with total %d", sum, s.Mispredicts)
	}
}

// degenerateConfigs are extreme-but-legal mutations of Default; the
// stats golden pins their exact output too.
var degenerateConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"width 1", func(c *Config) { c.Width = 1 }},
	{"IFQ 1", func(c *Config) { c.IFQEntries = 1 }},
	{"ROB 1", func(c *Config) { c.ROBEntries = 1 }},
	{"LSQ minimum", func(c *Config) { c.ROBEntries = 2; c.LSQRatio = 0.1 }},
	{"zero penalty", func(c *Config) { c.MispredictPenalty = 0 }},
	{"one of every FU", func(c *Config) {
		c.IntALUs, c.FPALUs, c.IntMultDivs, c.FPMultDivs = 1, 1, 1, 1
	}},
	{"single memory port", func(c *Config) { c.MemPorts = 1 }},
	{"huge penalty", func(c *Config) { c.MispredictPenalty = 100 }},
	{"width 8", func(c *Config) { c.Width = 8 }},
}

func TestDegenerateConfigurations(t *testing.T) {
	// Extreme-but-legal configurations must still simulate correctly.
	for _, tc := range degenerateConfigs {
		cfg := Default()
		tc.mutate(&cfg)
		s := runConfig(t, cfg, "parser", 4000)
		if s.Instructions != 4000 {
			t.Errorf("%s: incomplete run", tc.name)
		}
		if s.Cycles < 1000 { // width <= 8 bounds IPC
			t.Errorf("%s: impossible cycle count %d", tc.name, s.Cycles)
		}
	}
}

func TestNarrowMachineSlowerThanWide(t *testing.T) {
	narrow := Default()
	narrow.Width = 1
	wide := Default()
	wide.Width = 4
	sn := runConfig(t, narrow, "gzip", 8000)
	sw := runConfig(t, wide, "gzip", 8000)
	if sn.Cycles <= sw.Cycles {
		t.Errorf("1-wide (%d cycles) should be slower than 4-wide (%d)", sn.Cycles, sw.Cycles)
	}
}

func TestCommitUpdatePredictorWorseOrEqual(t *testing.T) {
	// Updating predictor state at commit instead of decode delays
	// training; with in-flight loop branches this costs accuracy.
	spec := Default()
	spec.SpecUpdate = true
	commit := Default()
	commit.SpecUpdate = false
	ss := runConfig(t, spec, "twolf", 20000)
	sc := runConfig(t, commit, "twolf", 20000)
	// Delayed training cannot systematically help; allow instance-level
	// noise (a stale history can coincidentally predict better on a
	// few branches) but catch any large inversion.
	if float64(sc.Mispredicts) < 0.9*float64(ss.Mispredicts) {
		t.Errorf("commit-update mispredicts %d substantially fewer than speculative-update %d", sc.Mispredicts, ss.Mispredicts)
	}
}

func TestSmallerPenaltyNeverSlower(t *testing.T) {
	fast := Default()
	fast.MispredictPenalty = 2
	slow := Default()
	slow.MispredictPenalty = 10
	sf := runConfig(t, fast, "twolf", 10000)
	ss := runConfig(t, slow, "twolf", 10000)
	if sf.Cycles > ss.Cycles {
		t.Errorf("penalty 2 (%d cycles) slower than penalty 10 (%d)", sf.Cycles, ss.Cycles)
	}
}
