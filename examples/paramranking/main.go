// Paramranking: the paper's Section 4.1 workflow on the simulator.
//
// A Plackett-Burman screen over all 41 processor parameters (X=44
// foldover design, 88 configurations) identifies the critical
// parameters for a three-benchmark suite, then a full-factorial ANOVA
// over the top parameters quantifies their interactions -- exactly the
// two-stage recipe the paper recommends before choosing simulation
// parameter values.
//
// Run with:
//
//	go run ./examples/paramranking
package main

import (
	"context"
	"fmt"

	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/methodology"
	"pbsim/internal/pb"
	"pbsim/internal/report"
	"pbsim/internal/workload"
)

func main() {
	const instructions, warmup = 20000, 10000
	var ws []workload.Workload
	for _, name := range []string{"gzip", "mcf", "twolf"} {
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		ws = append(ws, w)
	}

	// Step 1: the PB screen.
	suite, err := experiment.RunSuite(experiment.Options{
		Instructions: instructions,
		Warmup:       warmup,
		Foldover:     true,
		Workloads:    ws,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(report.RankTable(suite, "PB screen over 41 processor parameters (3 benchmarks)"))

	screening := methodology.ScreenFromSuite(suite, 4)
	fmt.Println("Critical parameters (by sum of ranks):")
	for i, f := range screening.Critical {
		fmt.Printf("  %d. %s (sum %d)\n", i+1, suite.Factors[f].Name, suite.Sums[f])
	}

	// Step 3: full-factorial sensitivity analysis over the critical
	// parameters for one benchmark, non-critical parameters held high.
	resp := experiment.Response(ws[0], warmup, instructions, enhance.Spec{})
	sens, err := methodology.SensitivityAnalysis(context.Background(), suite.Design.Columns, screening.Critical, resp, pb.High)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nFull 2^%d factorial ANOVA over the critical parameters (%s):\n",
		len(screening.Critical), ws[0].Name)
	names := make([]string, suite.Design.Columns)
	for i, f := range suite.Factors {
		names[i] = f.Name
	}
	shown := 0
	for _, term := range sens.ANOVA.Terms {
		if shown >= 8 {
			break
		}
		label := ""
		for k, fi := range term.Factors {
			if k > 0 {
				label += " x "
			}
			label += names[sens.Factors[fi]]
		}
		fmt.Printf("  %-60s %6.2f%% of variation\n", label, term.Percent)
		shown++
	}
	fmt.Printf("\nInteractions explain %.2f%% of the variation -- the paper's\n", sens.ANOVA.InteractionShare())
	fmt.Println("justification for trusting PB main effects (Section 2.2).")
}
