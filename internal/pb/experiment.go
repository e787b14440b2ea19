package pb

import (
	"context"
	"fmt"
	"math"
	"sync"

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

// Response evaluates one design row: given the level of every factor
// column it returns the measured response (in this paper, simulated
// execution time in cycles). Implementations must be safe for
// concurrent use; the runner fans rows out across goroutines.
//
// Response is the legacy infallible form. New code should implement
// FallibleResponse, which can report per-row errors and observe
// cancellation instead of panicking.
type Response func(levels []Level) float64

// FallibleResponse is the fault-tolerant row evaluator: it receives
// the run's context (carrying cancellation and the per-attempt
// deadline) and may fail with an error, which the runner retries and,
// if retries are exhausted, aggregates into the experiment's error —
// never into a silent NaN in the effects.
type FallibleResponse func(ctx context.Context, levels []Level) (float64, error)

// Fallible adapts a legacy infallible response to the fallible
// interface.
func (r Response) Fallible() FallibleResponse {
	//pbcheck:ignore ctxflow a legacy infallible Response cannot observe cancellation; the adapter drops ctx by design
	return func(_ context.Context, levels []Level) (float64, error) {
		return r(levels), nil
	}
}

// Infallible adapts a fallible response for infallible-only analyses
// (the one-at-a-time and full-factorial baselines), which predate the
// error path. A Response has no way to report failure, so the adapter
// routes it through the error path out of band: a failed row yields
// NaN — poisoning any statistic derived from it rather than inventing
// a plausible value — and the first error is recorded and returned by
// errf once the analysis finishes. Callers must check errf() before
// trusting the results. The adapter is safe for concurrent rows.
func (f FallibleResponse) Infallible() (resp Response, errf func() error) {
	var mu sync.Mutex
	var first error
	resp = func(levels []Level) float64 {
		v, err := f(context.Background(), levels)
		if err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
			return math.NaN()
		}
		return v
	}
	errf = func() error {
		mu.Lock()
		defer mu.Unlock()
		return first
	}
	return resp, errf
}

// Options configures an experiment run.
type Options struct {
	// Foldover selects the 2X-run foldover design (the paper's
	// recommendation); without it the basic X-run design is used.
	Foldover bool
	// Parallelism bounds the number of concurrently evaluated rows.
	// Zero selects GOMAXPROCS. (Runner.Parallelism, when set, wins.)
	Parallelism int
	// Runner tunes fault tolerance: per-row timeout, retries with
	// capped backoff, and fault injection. The zero value is a plain
	// parallel evaluation.
	Runner runner.Config
}

// Result holds everything produced by one PB experiment on a single
// benchmark/response.
type Result struct {
	Design    *Design
	Factors   []Factor // padded with dummies to Design.Columns
	Responses []float64
	Effects   []float64 // raw effects, one per column
	Ranks     []int     // 1 = most significant, one per column
}

// Run executes a full Plackett-Burman experiment: it builds the
// smallest design that can hold the factors, evaluates the response
// for every configuration row (in parallel), and computes effects and
// ranks. The factor list is padded with dummy factors up to the design
// column count.
//
// Run is the legacy infallible entry point, a thin adapter over
// RunCtx.
func Run(factors []Factor, response Response, opts Options) (*Result, error) {
	return RunCtx(context.Background(), factors, response.Fallible(), opts)
}

// RunCtx is the fault-tolerant form of Run.
func RunCtx(ctx context.Context, factors []Factor, response FallibleResponse, opts Options) (*Result, error) {
	design, err := New(len(factors), opts.Foldover)
	if err != nil {
		return nil, err
	}
	return RunWithDesignCtx(ctx, design, factors, response, opts)
}

// RunWithDesign is Run with a caller-supplied design, allowing one
// design to be reused across benchmarks (as in Table 9, where the same
// X=44 foldover design drives all 13 workloads).
func RunWithDesign(design *Design, factors []Factor, response Response, opts Options) (*Result, error) {
	return RunWithDesignCtx(context.Background(), design, factors, response.Fallible(), opts)
}

// RunWithDesignCtx is the fault-tolerant form of RunWithDesign.
func RunWithDesignCtx(ctx context.Context, design *Design, factors []Factor, response FallibleResponse, opts Options) (*Result, error) {
	if len(factors) > design.Columns {
		return nil, fmt.Errorf("pb: %d factors exceed the design's %d columns", len(factors), design.Columns)
	}
	padded := make([]Factor, design.Columns)
	copy(padded, factors)
	for i := len(factors); i < design.Columns; i++ {
		padded[i] = Dummy(i - len(factors) + 1)
	}
	responses, err := EvaluateRowsCtx(ctx, design, response, opts)
	if err != nil {
		return nil, err
	}
	effects, err := Effects(design, responses)
	if err != nil {
		return nil, err
	}
	return &Result{
		Design:    design,
		Factors:   padded,
		Responses: responses,
		Effects:   effects,
		Ranks:     Ranks(effects),
	}, nil
}

// EvaluateRows computes the response of every design row using up to
// parallelism goroutines (GOMAXPROCS when zero).
//
// It is the legacy infallible entry point, kept as a thin adapter
// over the fault-tolerant runner: an infallible response cannot
// error, so the only failure mode is a panic inside it, which the
// runner recovers and EvaluateRows reports as an error — the same
// error path every other entry point uses.
func EvaluateRows(design *Design, response Response, parallelism int) ([]float64, error) {
	return EvaluateRowsCtx(context.Background(), design, response.Fallible(),
		Options{Parallelism: parallelism})
}

// EvaluateRowsCtx evaluates every design row through the resilient
// runner: bounded parallelism, cancellation, per-row timeout, retry
// with backoff, and panic recovery per opts.Runner.
func EvaluateRowsCtx(ctx context.Context, design *Design, response FallibleResponse, opts Options) ([]float64, error) {
	cfg := opts.Runner
	if cfg.Parallelism == 0 {
		cfg.Parallelism = opts.Parallelism
	}
	task := func(ctx context.Context, i int) (float64, error) {
		return response(ctx, design.Row(i))
	}
	//pbcheck:ignore determinism runner.Evaluate's wall-clock reads feed latency metrics only; row values are bit-identical under Nop vs instrumented recorders (pinned by obs bit-identity tests)
	return runner.Evaluate(ctx, design.Runs(), task, cfg)
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

// RunSuite evaluates responses[bi] for every benchmark bi over a
// shared design built for the given factors. It is the legacy
// infallible entry point, a thin adapter over RunSuiteCtx.
func RunSuite(factors []Factor, benchmarks []string, responses []Response, opts Options) (*Suite, error) {
	fallible := make([]FallibleResponse, len(responses))
	for i, r := range responses {
		fallible[i] = r.Fallible()
	}
	return RunSuiteCtx(context.Background(), factors, benchmarks, fallible, opts)
}

// RunSuiteCtx is the fault-tolerant form of RunSuite: the context
// cancels the whole suite, and opts.Runner adds timeouts and retries.
// Each benchmark's rows run under a scope derived from its name
// (opts.Runner.Scope + "/" + name when a scope is set), which names
// them in every runner event and callback.
func RunSuiteCtx(ctx context.Context, factors []Factor, benchmarks []string, responses []FallibleResponse, opts Options) (*Suite, error) {
	if len(benchmarks) != len(responses) {
		return nil, fmt.Errorf("pb: %d benchmark names but %d responses", len(benchmarks), len(responses))
	}
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("pb: empty benchmark suite")
	}
	design, err := New(len(factors), opts.Foldover)
	if err != nil {
		return nil, err
	}
	return RunSuiteWithDesignCtx(ctx, design, factors, benchmarks, responses, opts)
}

// RunSuiteWithDesignCtx is RunSuiteCtx with a caller-supplied design,
// the form the experiment harness uses so it can fingerprint the
// experiment before the first row runs.
func RunSuiteWithDesignCtx(ctx context.Context, design *Design, factors []Factor, benchmarks []string, responses []FallibleResponse, opts Options) (*Suite, error) {
	if len(benchmarks) != len(responses) {
		return nil, fmt.Errorf("pb: %d benchmark names but %d responses", len(benchmarks), len(responses))
	}
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("pb: empty benchmark suite")
	}
	s := &Suite{
		Design:     design,
		Benchmarks: benchmarks,
		Results:    make([]*Result, len(benchmarks)),
		RankRows:   make([][]int, len(benchmarks)),
	}
	baseScope := opts.Runner.Scope
	for bi, resp := range responses {
		bopts := opts
		bopts.Runner.Scope = benchmarks[bi]
		if baseScope != "" {
			bopts.Runner.Scope = baseScope + "/" + benchmarks[bi]
		}
		res, err := RunWithDesignCtx(ctx, design, factors, resp, bopts)
		if err != nil {
			return nil, fmt.Errorf("pb: benchmark %s: %w", benchmarks[bi], err)
		}
		s.Results[bi] = res
		s.RankRows[bi] = res.Ranks
		if s.Factors == nil {
			s.Factors = res.Factors
		}
	}
	s.Sums = SumOfRanks(s.RankRows)
	s.Order = OrderBySum(s.Sums)
	return s, nil
}

// SuiteFromResponses assembles a Suite from precomputed response
// vectors — one dense vector of Design.Runs() values per benchmark —
// instead of evaluating them. It is the analysis half of the
// distributed execution split: workers (internal/runner/dist) produce
// the vectors, a merge proves them complete and consistent, and this
// function computes the identical effects, ranks, and sum-of-ranks
// ordering a sequential RunSuiteWithDesignCtx call yields from the
// same values.
func SuiteFromResponses(design *Design, factors []Factor, benchmarks []string, responses [][]float64) (*Suite, error) {
	if len(benchmarks) != len(responses) {
		return nil, fmt.Errorf("pb: %d benchmark names but %d response vectors", len(benchmarks), len(responses))
	}
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("pb: empty benchmark suite")
	}
	if len(factors) > design.Columns {
		return nil, fmt.Errorf("pb: %d factors exceed the design's %d columns", len(factors), design.Columns)
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
