package pb

import (
	"context"
	"fmt"

	"pbsim/internal/runner"
)

// Factor describes one two-level experimental factor: a processor
// parameter, a compiler switch, or any other binary choice. Low and
// High are human-readable descriptions of the two settings (e.g.
// "8 entries" / "64 entries", or "2-level" / "perfect").
type Factor struct {
	Name string
	Low  string
	High string
}

// Dummy returns a placeholder factor for unused design columns. Its
// estimated effect measures experimental noise.
func Dummy(n int) Factor {
	return Factor{
		Name: fmt.Sprintf("Dummy Factor #%d", n),
		Low:  "-",
		High: "-",
	}
}

// Response evaluates one design row: given the run's context (for
// cancellation only; no row has a deadline of its own) and the level
// of every factor column it returns the measured response (in this
// paper, simulated execution time in cycles). Each row is evaluated
// once: a failed row returns an error, which the runner aggregates
// into the experiment's error — never into a silent NaN in the
// effects. Implementations must be safe for concurrent use; the
// runner fans rows out across goroutines.
type Response func(ctx context.Context, levels []Level) (float64, error)

// Result holds everything produced by one PB experiment on a single
// benchmark/response.
type Result struct {
	Design    *Design
	Factors   []Factor // padded with dummies to Design.Columns
	Responses []float64
	Effects   []float64 // raw effects, one per column
	Ranks     []int     // 1 = most significant, one per column
}

// Run executes one Plackett-Burman experiment over design: it
// evaluates the response for every configuration row through the
// resilient runner and computes effects and ranks. The factor list is
// padded with dummy factors up to the design column count. It is
// RunSuite over a single benchmark named by cfg.Scope.
func Run(ctx context.Context, design *Design, factors []Factor, response Response, cfg runner.Config) (*Result, error) {
	name := cfg.Scope
	cfg.Scope = ""
	s, err := RunSuite(ctx, design, factors, []string{name}, []Response{response}, cfg)
	if err != nil {
		return nil, err
	}
	return s.Results[0], nil
}

// Suite runs the same design over several named responses (one per
// benchmark) and aggregates ranks, reproducing the full Table 9
// workflow including the sum-of-ranks ordering.
type Suite struct {
	Design     *Design
	Factors    []Factor
	Benchmarks []string
	Results    []*Result // one per benchmark, same order
	RankRows   [][]int   // [benchmark][factor]
	Sums       []int     // [factor]
	Order      []int     // factor indices by ascending sum
}

// RunSuite evaluates responses[bi] for every benchmark bi over one
// shared design (as in Table 9, where the same X=44 foldover design
// drives all 13 workloads), benchmark by benchmark, through the
// resilient runner: ctx cancels the whole suite, cfg adds bounded
// parallelism, and the runner recovers panics; a benchmark with a
// failed row stops the suite with the runner's aggregate error. Each
// benchmark's rows run under a scope derived from its name
// (cfg.Scope + "/" + name when a scope is set), which names them in
// every runner event and callback. The evaluated vectors are folded by
// SuiteFromResponses, so an in-memory suite and a campaign merged from
// disk end in the same analysis.
func RunSuite(ctx context.Context, design *Design, factors []Factor, benchmarks []string, responses []Response, cfg runner.Config) (*Suite, error) {
	if err := checkSuite(design, factors, benchmarks, len(responses)); err != nil {
		return nil, err
	}
	base := cfg.Scope
	vecs := make([][]float64, len(responses))
	for bi, resp := range responses {
		cfg.Scope = benchmarks[bi]
		if base != "" {
			cfg.Scope = base + "/" + benchmarks[bi]
		}
		task := func(ctx context.Context, i int) (float64, error) {
			return resp(ctx, design.Row(i))
		}
		var err error
		//pbcheck:ignore determinism runner.Evaluate's wall-clock reads feed latency metrics only; row values are bit-identical whichever Recorder observes them (pinned by obs bit-identity tests)
		if vecs[bi], err = runner.Evaluate(ctx, design.Runs(), task, cfg); err != nil {
			return nil, fmt.Errorf("pb: benchmark %s: %w", benchmarks[bi], err)
		}
	}
	return SuiteFromResponses(design, factors, benchmarks, vecs)
}

// SuiteFromResponses assembles a Suite from precomputed response
// vectors — one dense vector of Design.Runs() values per benchmark —
// instead of evaluating them. It is the analysis half of the
// distributed execution split: workers (internal/runner/dist) produce
// the vectors, a merge proves them complete and consistent, and this
// function is the fold RunSuite ends in, so a merged campaign yields
// the identical effects, ranks, and sum-of-ranks ordering.
func SuiteFromResponses(design *Design, factors []Factor, benchmarks []string, responses [][]float64) (*Suite, error) {
	if err := checkSuite(design, factors, benchmarks, len(responses)); err != nil {
		return nil, err
	}
	padded := make([]Factor, design.Columns)
	copy(padded, factors)
	for i := len(factors); i < design.Columns; i++ {
		padded[i] = Dummy(i - len(factors) + 1)
	}
	s := &Suite{
		Design:     design,
		Factors:    padded,
		Benchmarks: benchmarks,
		Results:    make([]*Result, len(benchmarks)),
		RankRows:   make([][]int, len(benchmarks)),
	}
	for bi, vec := range responses {
		if len(vec) != design.Runs() {
			return nil, fmt.Errorf("pb: benchmark %s has %d responses, design needs %d", benchmarks[bi], len(vec), design.Runs())
		}
		effects, err := Effects(design, vec)
		if err != nil {
			return nil, fmt.Errorf("pb: benchmark %s: %w", benchmarks[bi], err)
		}
		s.Results[bi] = &Result{
			Design:    design,
			Factors:   padded,
			Responses: vec,
			Effects:   effects,
			Ranks:     Ranks(effects),
		}
		s.RankRows[bi] = s.Results[bi].Ranks
	}
	s.Sums = SumOfRanks(s.RankRows)
	s.Order = OrderBySum(s.Sums)
	return s, nil
}

// checkSuite validates the suite shape RunSuite and SuiteFromResponses
// share: one response per named benchmark, at least one benchmark, and
// no more factors than design columns.
func checkSuite(design *Design, factors []Factor, benchmarks []string, responses int) error {
	if len(benchmarks) != responses {
		return fmt.Errorf("pb: %d benchmark names but %d responses", len(benchmarks), responses)
	}
	if len(benchmarks) == 0 {
		return fmt.Errorf("pb: empty benchmark suite")
	}
	if len(factors) > design.Columns {
		return fmt.Errorf("pb: %d factors exceed the design's %d columns", len(factors), design.Columns)
	}
	return nil
}
