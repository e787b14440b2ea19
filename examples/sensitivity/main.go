// Sensitivity: the paper's Section 2.1 argument, demonstrated on the
// simulator rather than on a toy formula.
//
// A one-at-a-time sensitivity analysis measures each parameter's
// effect at a single base point. With the base set to all-high values
// — a natural "generous machine" choice — vpr-Route's 2 MB working
// set fits entirely inside the 8 MB L2, so flipping the main-memory
// latency appears to cost almost nothing: the interaction with L2
// size masks it. The Plackett-Burman design varies all parameters
// simultaneously and averages each effect over both levels of every
// other parameter, so the masking disappears.
//
// Run with:
//
//	go run ./examples/sensitivity
package main

import (
	"context"
	"fmt"
	"sort"

	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/pb"
	"pbsim/internal/runner"
	"pbsim/internal/sim"
	"pbsim/internal/stats"
	"pbsim/internal/workload"
)

func main() {
	const instructions, warmup = 20000, 10000
	w, err := workload.ByName("vpr-Route")
	if err != nil {
		panic(err)
	}
	response := experiment.Response(w, warmup, instructions, enhance.Spec{})
	factors := []string{}
	for _, f := range experimentFactors() {
		factors = append(factors, f.Name)
	}

	// One-at-a-time from the all-high base: N+1 = 42 simulations.
	base := make([]int8, len(factors))
	for i := range base {
		base[i] = +1
	}
	oat, err := stats.OneAtATime(base, func(levels []int8) (float64, error) {
		lv := make([]pb.Level, len(levels))
		for i, l := range levels {
			lv[i] = pb.Level(l)
		}
		return response(context.Background(), lv)
	})
	if err != nil {
		panic(err)
	}

	// The PB foldover design: 88 simulations, effects averaged over
	// the whole parameter space.
	design, err := pb.New(len(factors), true)
	if err != nil {
		panic(err)
	}
	pbRes, err := pb.Run(context.Background(), design, experimentFactors(), response, runner.Config{})
	if err != nil {
		panic(err)
	}

	// Rank both analyses and compare where memory latency lands.
	oatRanks := rankByMagnitude(oat.Deltas)
	idx := indexOf(factors, "Memory Latency First")
	idxL2 := indexOf(factors, "L2 Cache Size")

	fmt.Printf("vpr-Route (2 MB working set), base = all-high (8 MB L2):\n\n")
	fmt.Printf("%-28s %22s %22s\n", "parameter", "one-at-a-time rank", "Plackett-Burman rank")
	for _, name := range []string{"Memory Latency First", "L2 Cache Size", "L2 Cache Latency", "Reorder Buffer Entries"} {
		i := indexOf(factors, name)
		fmt.Printf("%-28s %22d %22d\n", name, oatRanks[i], pbRes.Ranks[i])
	}
	fmt.Printf("\nOne-at-a-time delta for memory latency: %+.0f cycles (of a %.0f-cycle base)\n",
		oat.Deltas[idx], oat.Base)
	fmt.Printf("PB effect magnitude for memory latency:  %.0f (rank %d of %d)\n",
		abs(pbRes.Effects[idx]), pbRes.Ranks[idx], len(factors))
	fmt.Println("\nAt the all-high base the working set fits the 8 MB L2, so the")
	fmt.Println("one-at-a-time design cannot see that memory latency dominates")
	fmt.Println("whenever the L2 is small: the L2-size interaction masks it.")
	fmt.Printf("(The same masking hides L2 size itself: one-at-a-time rank %d vs PB rank %d.)\n",
		oatRanks[idxL2], pbRes.Ranks[idxL2])
}

// experimentFactors returns the simulator's 41 PB factors.
func experimentFactors() []pb.Factor {
	return sim.Factors()
}

func rankByMagnitude(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return abs(vals[idx[a]]) > abs(vals[idx[b]])
	})
	ranks := make([]int, len(vals))
	for r, i := range idx {
		ranks[i] = r + 1
	}
	return ranks
}

func indexOf(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	panic("unknown factor " + want)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
