// Quickstart: screen the factors of any measurable system with a
// Plackett-Burman design in a few lines.
//
// The "system" here is a closed-form model of a tiny web service whose
// latency depends on a handful of two-level configuration choices,
// some of which matter a lot, some barely, and one pair of which
// interacts. The PB design finds the important ones in 12 runs instead
// of the 2^7 = 128 a full factorial would need.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"pbsim/internal/pb"
	"pbsim/internal/runner"
)

func main() {
	factors := []pb.Factor{
		{Name: "CacheEnabled", Low: "off", High: "on"},
		{Name: "PoolSize", Low: "4", High: "64"},
		{Name: "Compression", Low: "off", High: "on"},
		{Name: "BatchWrites", Low: "off", High: "on"},
		{Name: "TLSResume", Low: "off", High: "on"},
		{Name: "LogLevel", Low: "debug", High: "error"},
		{Name: "NUMAPinning", Low: "off", High: "on"},
	}

	// Latency model: the cache dominates, the pool matters, compression
	// helps a little, and batch writes only pay off when the pool is
	// large (an interaction the foldover protects the main effects
	// from). Logging and NUMA pinning are noise-level.
	latency := func(ctx context.Context, l []pb.Level) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		ms := 100.0
		ms -= 30 * float64(l[0])                // cache
		ms -= 12 * float64(l[1])                // pool
		ms -= 4 * float64(l[2])                 // compression
		ms -= 3 * float64(l[1]) * float64(l[3]) // batch x pool interaction
		ms -= 0.3 * float64(l[5])
		ms -= 0.2 * float64(l[6])
		return ms, nil
	}

	design, err := pb.New(len(factors), true) // foldover
	if err != nil {
		panic(err)
	}
	result, err := pb.Run(context.Background(), design, factors, latency, runner.Config{})
	if err != nil {
		panic(err)
	}

	fmt.Printf("Design: X=%d, %d runs (foldover), %d factor columns\n\n",
		result.Design.X, result.Design.Runs(), result.Design.Columns)
	fmt.Printf("%-14s %10s %6s\n", "factor", "effect", "rank")
	for i, f := range result.Factors {
		fmt.Printf("%-14s %10.1f %6d\n", f.Name, result.Effects[i], result.Ranks[i])
	}
	fmt.Println("\nRanks 1-3 should be CacheEnabled, PoolSize, Compression:")
	for i, f := range result.Factors {
		if result.Ranks[i] <= 3 {
			fmt.Printf("  #%d %s\n", result.Ranks[i], f.Name)
		}
	}
	fmt.Println("\nNote the BatchWrites main effect reads ~0: its whole influence is")
	fmt.Println("the interaction with PoolSize, which the foldover keeps out of the")
	fmt.Println("main-effect estimates (run a full factorial on the survivors to see it).")
}
