// Package pbsim's benchmark harness regenerates every table of the
// paper (there are no figures) at benchmark scale: each BenchmarkTableN
// drives the same code path as the corresponding cmd tool, scaled down
// so a full -bench=. sweep stays laptop-sized. The cmd tools
// (pbdesign, pbrank, pbclassify, pbenhance, tablegen) produce the
// full-size tables.
package pbsim

import (
	"context"
	"fmt"
	"testing"

	"pbsim/internal/cluster"
	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/methodology"
	"pbsim/internal/paperdata"
	"pbsim/internal/pb"
	"pbsim/internal/report"
	"pbsim/internal/sim"
	"pbsim/internal/stats"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// benchInstr and benchWarmup scale the simulation benchmarks.
const (
	benchInstr  = 3000
	benchWarmup = 2000
)

func benchWorkloads(b *testing.B, names ...string) []workload.Workload {
	b.Helper()
	var ws []workload.Workload
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// BenchmarkTable1DesignCost regenerates the design-cost comparison.
func BenchmarkTable1DesignCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := report.DesignCost(43); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2DesignX8 regenerates and verifies the X=8 matrix.
func BenchmarkTable2DesignX8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := pb.NewWithSize(8, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := pb.Verify(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Foldover regenerates and verifies the X=8 foldover
// matrix.
func BenchmarkTable3Foldover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := pb.NewWithSize(8, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := pb.Verify(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Effects recomputes the worked example's effects.
func BenchmarkTable4Effects(b *testing.B) {
	d, err := pb.NewWithSize(8, false)
	if err != nil {
		b.Fatal(err)
	}
	responses := []float64{1, 9, 74, 28, 3, 6, 112, 84}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		effects, err := pb.Effects(d, responses)
		if err != nil {
			b.Fatal(err)
		}
		if !stats.ApproxEqual(effects[5], -225, 0) {
			b.Fatalf("effect F = %g", effects[5])
		}
	}
}

// BenchmarkTable5Workloads builds the full benchmark roster, including
// every synthetic generator's static structure.
func BenchmarkTable5Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workload.All() {
			if _, err := w.NewGenerator(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable6to8Config maps PB levels onto full processor
// configurations (the Tables 6-8 value assignment).
func BenchmarkTable6to8Config(b *testing.B) {
	design, err := pb.New(41, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < design.Runs(); r++ {
			cfg := sim.ConfigForLevels(design.Row(r))
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable9PBRanking runs the full X=44 foldover PB experiment
// (88 simulated configurations) over a two-benchmark slice of the
// suite at reduced instruction counts.
func BenchmarkTable9PBRanking(b *testing.B) {
	ws := benchWorkloads(b, "gzip", "mcf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite, err := experiment.RunSuite(experiment.Options{
			Instructions: benchInstr,
			Warmup:       benchWarmup,
			Foldover:     true,
			Workloads:    ws,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(suite.Order) != 43 {
			b.Fatal("bad suite")
		}
	}
}

// BenchmarkTable10Distances computes the 13x13 benchmark distance
// matrix from the published Table 9 ranks.
func BenchmarkTable10Distances(b *testing.B) {
	vecs := paperdata.RankVectors(paperdata.Table9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cluster.DistanceMatrix(paperdata.Benchmarks, vecs)
		if err != nil {
			b.Fatal(err)
		}
		if m.At(0, 1) < 89 || m.At(0, 1) > 90 {
			b.Fatalf("gzip-vprPlace distance %g", m.At(0, 1))
		}
	}
}

// BenchmarkTable11Groups thresholds the distance matrix into the
// paper's benchmark groups.
func BenchmarkTable11Groups(b *testing.B) {
	m, err := cluster.DistanceMatrix(paperdata.Benchmarks, paperdata.RankVectors(paperdata.Table9))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := cluster.ThresholdGroups(m, paperdata.Threshold)
		if len(groups) != 8 {
			b.Fatalf("%d groups, paper has 8", len(groups))
		}
	}
}

// BenchmarkTable12Enhanced runs the before/after enhancement analysis
// (instruction precomputation, 128-entry table) on one benchmark.
func BenchmarkTable12Enhanced(b *testing.B) {
	ws := benchWorkloads(b, "gzip")
	for i := 0; i < b.N; i++ {
		opts := experiment.Options{
			Instructions: benchInstr,
			Warmup:       benchWarmup,
			Foldover:     true,
			Workloads:    ws,
		}
		before, err := experiment.RunSuite(opts)
		if err != nil {
			b.Fatal(err)
		}
		opts.Enhance = enhance.Spec{Mechanism: enhance.MechPrecompute, TableSize: 128}
		after, err := experiment.RunSuite(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := methodology.CompareEnhancement(before, after); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFoldover contrasts the basic X-run design with the
// paper's recommended 2X foldover on the same workload: the foldover
// doubles the simulation cost to buy interaction-free main effects.
func BenchmarkAblationFoldover(b *testing.B) {
	ws := benchWorkloads(b, "gzip")
	for _, foldover := range []bool{false, true} {
		b.Run(fmt.Sprintf("foldover=%v", foldover), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.RunSuite(experiment.Options{
					Instructions: benchInstr,
					Warmup:       benchWarmup,
					Foldover:     foldover,
					Workloads:    ws,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOneAtATime runs the N+1-simulation single-parameter
// design the paper argues against, for cost comparison with the PB
// benchmarks above.
func BenchmarkAblationOneAtATime(b *testing.B) {
	ws := benchWorkloads(b, "gzip")
	resp := experiment.Response(ws[0], benchWarmup, benchInstr, enhance.Spec{})
	base := make([]int8, 41)
	for i := range base {
		base[i] = -1
	}
	wrapped := func(levels []int8) (float64, error) {
		lv := make([]pb.Level, len(levels))
		for i, l := range levels {
			lv[i] = pb.Level(l)
		}
		return resp(context.Background(), lv)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.OneAtATime(base, wrapped); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationValueRange quantifies the paper's Section 2.2
// warning: the apparent effect of a parameter scales with the width of
// its chosen low/high range (here the ROB at the paper's 8..64 range
// versus a too-narrow 16..32 range).
func BenchmarkAblationValueRange(b *testing.B) {
	ws := benchWorkloads(b, "gzip")
	for _, rng := range []struct {
		name      string
		low, high int
	}{{"paper-8-64", 8, 64}, {"narrow-16-32", 16, 32}} {
		b.Run(rng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lowCfg := sim.Default()
				lowCfg.ROBEntries = rng.low
				highCfg := sim.Default()
				highCfg.ROBEntries = rng.high
				var cycles [2]int64
				for j, cfg := range []sim.Config{lowCfg, highCfg} {
					gen, err := ws[0].NewGenerator()
					if err != nil {
						b.Fatal(err)
					}
					cpu, err := sim.New(cfg, gen, nil)
					if err != nil {
						b.Fatal(err)
					}
					cpu.PrewarmMemory()
					st, err := cpu.RunWithWarmup(benchWarmup, benchInstr)
					if err != nil {
						b.Fatal(err)
					}
					cycles[j] = st.Cycles
				}
				if cycles[1] > cycles[0] {
					b.Fatalf("larger ROB slower: %v", cycles)
				}
			}
		})
	}
}

// BenchmarkAblationTraceLength measures rank stability across trace
// lengths: the same PB experiment at 1x and 3x the instruction budget.
func BenchmarkAblationTraceLength(b *testing.B) {
	ws := benchWorkloads(b, "twolf")
	for _, scale := range []int64{1, 3} {
		b.Run(fmt.Sprintf("instr=%d", scale*benchInstr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.RunSuite(experiment.Options{
					Instructions: scale * benchInstr,
					Warmup:       benchWarmup,
					Foldover:     true,
					Workloads:    ws,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated instructions per wall-clock second) on the default
// configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := w.NewGenerator()
		if err != nil {
			b.Fatal(err)
		}
		cpu, err := sim.New(sim.Default(), gen, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cpu.Run(10000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*10000/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkTraceGeneration measures the synthetic stream generator.
func BenchmarkTraceGeneration(b *testing.B) {
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink trace.Instr
	for i := 0; i < b.N; i++ {
		sink = gen.Next()
	}
	_ = sink
}

// BenchmarkDesignX44 constructs and verifies the paper's X=44 foldover
// design.
func BenchmarkDesignX44(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := pb.New(43, true)
		if err != nil {
			b.Fatal(err)
		}
		if d.Runs() != 88 {
			b.Fatal("bad design")
		}
	}
}

// BenchmarkEffectsX44 computes effects and ranks for an 88-run design.
func BenchmarkEffectsX44(b *testing.B) {
	d, err := pb.New(43, true)
	if err != nil {
		b.Fatal(err)
	}
	responses := make([]float64, d.Runs())
	for i := range responses {
		responses[i] = float64(i * 37 % 101)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		effects, err := pb.Effects(d, responses)
		if err != nil {
			b.Fatal(err)
		}
		pb.Ranks(effects)
	}
}
