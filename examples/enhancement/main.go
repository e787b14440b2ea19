// Enhancement: the paper's Section 4.3 post-simulation analysis.
//
// Instruction precomputation (a 128-entry table of the most frequent
// redundant computations, filled by an offline profiling pass and
// never updated) is added to the simulated processor. Instead of
// reporting only the speedup, a Plackett-Burman experiment before and
// after the enhancement shows *what the enhancement did to the
// processor*: which parameters gained or lost significance.
//
// Run with:
//
//	go run ./examples/enhancement
package main

import (
	"fmt"

	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/methodology"
	"pbsim/internal/report"
	"pbsim/internal/sim"
	"pbsim/internal/workload"
)

func main() {
	const instructions, warmup = 20000, 10000
	var ws []workload.Workload
	for _, name := range []string{"gzip", "bzip2", "parser"} {
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		ws = append(ws, w)
	}

	// The enhancement is data: a mechanism and its table size.
	precompute := enhance.Spec{Mechanism: enhance.MechPrecompute, TableSize: 128}

	// First, the conventional single-number view: the speedup.
	for _, w := range ws {
		base := runOnce(w, enhance.Spec{}, warmup, instructions)
		enh := runOnce(w, precompute, warmup, instructions)
		fmt.Printf("%-8s base %7d cycles, precomputed %7d cycles, speedup %.3fx (%d table hits)\n",
			w.Name, base.Cycles, enh.Cycles, float64(base.Cycles)/float64(enh.Cycles), enh.PrecompHits)
	}

	// Then the paper's whole-picture view: PB ranks before and after.
	opts := experiment.Options{
		Instructions: instructions,
		Warmup:       warmup,
		Foldover:     true,
		Workloads:    ws,
	}
	before, err := experiment.RunSuite(opts)
	if err != nil {
		panic(err)
	}
	opts.Enhance = precompute
	after, err := experiment.RunSuite(opts)
	if err != nil {
		panic(err)
	}
	shifts, err := methodology.CompareEnhancement(before, after)
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Println(report.ShiftTable(shifts[:12], "Top parameters: significance before vs after precomputation"))
	big, err := methodology.BiggestShift(shifts, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Biggest mover among the significant parameters: %s (%+d)\n", big.Factor.Name, big.Shift)
	fmt.Println("(The paper observes the integer-ALU parameter losing significance,")
	fmt.Println("since precomputation removes work precisely from the integer ALUs.)")
}

// runOnce simulates w on the default processor with the enhancement.
func runOnce(w workload.Workload, enh enhance.Spec, warmup, instructions int64) sim.Stats {
	gen, err := w.NewGenerator()
	if err != nil {
		panic(err)
	}
	shortcut, err := enh.Shortcuts(w.Params, warmup+instructions)()
	if err != nil {
		panic(err)
	}
	cpu, err := sim.New(sim.Default(), gen, shortcut)
	if err != nil {
		panic(err)
	}
	cpu.PrewarmMemory()
	stats, err := cpu.RunWithWarmup(warmup, instructions)
	if err != nil {
		panic(err)
	}
	return stats
}
