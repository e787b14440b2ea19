// Package assess is the methodology-assessment harness: it runs the
// paper's Plackett-Burman screen — and the designs the paper compares
// it against — over populations of synthetic ground-truth surfaces
// (internal/truth) where the right answer is known by construction,
// and scores how often each method actually finds it.
//
// The paper *asserts* that a PB screen identifies the significant
// parameters; this package measures that claim per surface family:
// rank recovery (Spearman correlation between the method's ranking
// and the true importance ranking), critical-set precision and recall
// at the paper's significance-gap cut, and simulation-budget cost.
// Scores are aggregated into per-family trust tables with 95%
// confidence intervals, so a user can read off *when* the method can
// be trusted — and, just as importantly, when it cannot (a dominant
// three-factor interaction is provably invisible to a PB main-effect
// contrast; see internal/truth's ThreeFactor family).
package assess

import (
	"context"
	"fmt"
	"math"
	"sort"

	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/runner"
	"pbsim/internal/stats"
	"pbsim/internal/truth"
)

// Method names one screening design in the shoot-out.
type Method string

// The four contenders, in the cost order of the paper's Table 1.
const (
	MethodOneAtATime    Method = "one-at-a-time"
	MethodPB            Method = "pb"
	MethodPBFoldover    Method = "pb-foldover"
	MethodFullFactorial Method = "full-factorial"
)

// Methods returns every method in presentation order (cheapest
// first).
func Methods() []Method {
	return []Method{MethodOneAtATime, MethodPB, MethodPBFoldover, MethodFullFactorial}
}

// DefaultWarnThreshold is the trust level below which a family/method
// cell is flagged: a mean critical-set recall under 0.8 means the
// screen misses more than one in five truly-critical parameters.
const DefaultWarnThreshold = 0.8

// Config parameterizes one assessment campaign.
type Config struct {
	// Families to assess; nil selects every truth family.
	Families []truth.Family
	// Surfaces is N, the number of sampled surfaces per family.
	Surfaces int
	// Factors (K) and Critical are passed to the surface generator.
	Factors  int
	Critical int
	// SNR is the generator's signal-to-noise ratio (0 = noiseless).
	SNR float64
	// Seed reproduces the whole campaign.
	Seed int64
	// Budget caps the simulator runs a method may spend per surface;
	// a method whose design exceeds it is skipped (recorded, not
	// scored). 0 means unlimited.
	Budget int
	// Workers bounds the surfaces evaluated in parallel
	// (GOMAXPROCS when 0). Results are bit-identical for any worker
	// count: every surface's score depends only on its seed.
	Workers int
	// WarnThreshold overrides DefaultWarnThreshold when > 0.
	WarnThreshold float64
	// Recorder observes the campaign through the shared runner
	// (per-surface latency, worker occupancy, ...). Nil means obs.Nop.
	Recorder obs.Recorder
}

// MethodScore is one method's result on one surface.
type MethodScore struct {
	Method Method `json:"method"`
	// Skipped reports that the method's design exceeded the run
	// budget and was not executed.
	Skipped bool `json:"skipped,omitempty"`
	// Spearman is the rank correlation between the method's estimated
	// importance ranking and the true ranking (+1 = perfect).
	Spearman float64 `json:"spearman"`
	// Precision and Recall score the method's predicted critical set
	// (cut at the significance gap) against the true critical set.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// Runs is the simulation budget the method consumed.
	Runs int `json:"runs"`
}

// SurfaceScore collects every method's score on one sampled surface.
type SurfaceScore struct {
	Surface int           `json:"surface"`
	Seed    int64         `json:"seed"`
	Methods []MethodScore `json:"methods"`
}

// Estimate is a mean with its 95% confidence interval.
type Estimate struct {
	Mean float64 `json:"mean"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// MethodSummary aggregates one method over every scored surface of a
// family.
type MethodSummary struct {
	Method   Method `json:"method"`
	Surfaces int    `json:"surfaces"`
	// Skipped counts surfaces where the method exceeded the budget.
	Skipped   int      `json:"skipped,omitempty"`
	Spearman  Estimate `json:"spearman"`
	Precision Estimate `json:"precision"`
	Recall    Estimate `json:"recall"`
	MeanRuns  float64  `json:"mean_runs"`
	// Trust is the headline score: mean critical-set recall — the
	// fraction of truly-critical parameters the screen finds.
	Trust float64 `json:"trust"`
	// Warn flags Trust below the warning threshold: do not trust this
	// method on this family.
	Warn bool `json:"warn"`
}

// FamilyReport is the trust table for one surface family.
type FamilyReport struct {
	Family   truth.Family    `json:"family"`
	Surfaces int             `json:"surfaces"`
	Methods  []MethodSummary `json:"methods"`
}

// Report is the complete campaign outcome.
type Report struct {
	Factors       int            `json:"factors"`
	Critical      int            `json:"critical"`
	SNR           float64        `json:"snr"`
	Seed          int64          `json:"seed"`
	Budget        int            `json:"budget,omitempty"`
	WarnThreshold float64        `json:"warn_threshold"`
	Families      []FamilyReport `json:"families"`
}

// Surfaces returns N, the number of surfaces sampled per family
// (0 for an empty report). Every family of a campaign samples the
// same N.
func (r *Report) Surfaces() int {
	if len(r.Families) == 0 {
		return 0
	}
	return r.Families[0].Surfaces
}

// Warnings lists the (family, method) cells whose trust fell below
// the threshold, in report order.
func (r *Report) Warnings() []string {
	var out []string
	for _, fam := range r.Families {
		for _, m := range fam.Methods {
			if m.Warn {
				out = append(out, fmt.Sprintf("%s/%s trust %.2f", fam.Family, m.Method, m.Trust))
			}
		}
	}
	return out
}

// Run executes the campaign: for every family, N surfaces are sampled
// (seeds derived from cfg.Seed), each surface is screened by every
// method, and the scores are aggregated into per-family summaries.
// Surfaces are evaluated in parallel through the shared fault-
// tolerant runner; the output is bit-identical for any worker count.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	families := cfg.Families
	if len(families) == 0 {
		families = truth.Families()
	}
	if cfg.Surfaces < 1 {
		return nil, fmt.Errorf("assess: surfaces per family must be >= 1, got %d", cfg.Surfaces)
	}
	warn := cfg.WarnThreshold
	if warn <= 0 {
		warn = DefaultWarnThreshold
	}
	rep := &Report{
		Factors:       cfg.Factors,
		Critical:      cfg.Critical,
		SNR:           cfg.SNR,
		Seed:          cfg.Seed,
		Budget:        cfg.Budget,
		WarnThreshold: warn,
	}
	for _, fam := range families {
		scores, err := runFamily(ctx, cfg, fam)
		if err != nil {
			return nil, fmt.Errorf("assess: family %s: %w", fam, err)
		}
		rep.Families = append(rep.Families, summarize(fam, scores, warn))
	}
	return rep, nil
}

// runFamily scores every sampled surface of one family, fanning the
// surfaces out across the runner's worker pool.
func runFamily(ctx context.Context, cfg Config, fam truth.Family) ([]SurfaceScore, error) {
	scores := make([]SurfaceScore, cfg.Surfaces)
	task := func(ctx context.Context, i int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		seed := truth.SurfaceSeed(cfg.Seed, fam, i)
		surface, err := truth.Generate(truth.Config{
			Family:   fam,
			Factors:  cfg.Factors,
			Critical: cfg.Critical,
			SNR:      cfg.SNR,
			Seed:     seed,
		})
		if err != nil {
			return 0, err
		}
		ms, err := AssessSurface(surface, cfg.Budget)
		if err != nil {
			return 0, err
		}
		scores[i] = SurfaceScore{Surface: i, Seed: seed, Methods: ms}
		// The runner's response vector is not used for analysis; the
		// first method's Spearman is returned purely so progress
		// observability has a value to journal.
		return ms[0].Spearman, nil
	}
	//pbcheck:ignore determinism runner.Evaluate's time.Now feeds latency observability only; every score is written at its surface index as a pure function of the surface seed, and TestReportBitIdenticalAcrossWorkerCounts pins the bit-identity
	_, err := runner.Evaluate(ctx, cfg.Surfaces, task, runner.Config{
		Parallelism: cfg.Workers,
		Scope:       "assess/" + string(fam),
		Recorder:    cfg.Recorder,
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// AssessSurface runs every method against one surface and scores it
// against the surface's declared truth. A method whose design needs
// more than budget runs (budget > 0) is skipped.
func AssessSurface(s *truth.Surface, budget int) ([]MethodScore, error) {
	truthRanks := pb.Ranks(s.Importance)
	var out []MethodScore
	for _, m := range Methods() {
		imp, runs, err := estimate(m, s, budget)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		if imp == nil {
			out = append(out, MethodScore{Method: m, Skipped: true, Runs: runs})
			continue
		}
		score, err := scoreEstimate(m, imp, truthRanks, s.Critical, runs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		out = append(out, score)
	}
	return out, nil
}

// estimate produces a method's per-factor importance estimate and the
// runs it consumed. A nil slice with no error means the method was
// skipped for exceeding the budget.
func estimate(m Method, s *truth.Surface, budget int) ([]float64, int, error) {
	k := s.Factors
	switch m {
	case MethodOneAtATime:
		runs := k + 1
		if budget > 0 && runs > budget {
			return nil, runs, nil
		}
		base := make([]int8, k)
		for j := range base {
			base[j] = -1
		}
		res, err := stats.OneAtATime(base, func(levels []int8) (float64, error) { return s.Eval(levels), nil })
		if err != nil {
			return nil, 0, err
		}
		imp := make([]float64, k)
		for j, d := range res.Deltas {
			imp[j] = math.Abs(d) / 2
		}
		return imp, res.Runs(), nil
	case MethodPB, MethodPBFoldover:
		design, err := pb.New(k, m == MethodPBFoldover)
		if err != nil {
			return nil, 0, err
		}
		runs := design.Runs()
		if budget > 0 && runs > budget {
			return nil, runs, nil
		}
		responses := make([]float64, runs)
		levels := make([]int8, k)
		for i := 0; i < runs; i++ {
			row := design.Row(i)
			// Trailing design columns beyond k are dummy factors; the
			// surface sees only the real ones.
			for j := 0; j < k; j++ {
				levels[j] = int8(row[j])
			}
			responses[i] = s.Eval(levels)
		}
		effects, err := pb.NormalizedEffects(design, responses)
		if err != nil {
			return nil, 0, err
		}
		imp := make([]float64, k)
		for j := 0; j < k; j++ {
			imp[j] = math.Abs(effects[j]) / 2
		}
		return imp, runs, nil
	case MethodFullFactorial:
		runs := 1 << uint(k)
		if budget > 0 && runs > budget {
			return nil, runs, nil
		}
		rows, err := stats.FullFactorial(k)
		if err != nil {
			return nil, 0, err
		}
		responses := make([]float64, len(rows))
		for i, row := range rows {
			responses[i] = s.Eval(row)
		}
		anova, err := stats.ANOVA(k, responses)
		if err != nil {
			return nil, 0, err
		}
		// A factor's importance is the square root of the total sum
		// of squares over every term it participates in — main effect
		// and all interactions — normalized to effect scale. This is
		// the full design's structural advantage: it sees interaction
		// and cliff influence that main-effect contrasts cannot.
		ss := make([]float64, k)
		for _, t := range anova.Terms {
			for _, f := range t.Factors {
				ss[f] += t.SS
			}
		}
		imp := make([]float64, k)
		for j := range imp {
			imp[j] = math.Sqrt(ss[j] / float64(runs))
		}
		return imp, runs, nil
	}
	return nil, 0, fmt.Errorf("assess: unknown method %q", m)
}

// scoreEstimate converts an importance estimate into the surface's
// scorecard: Spearman rank recovery and critical-set precision/recall
// at the significance-gap cut.
func scoreEstimate(m Method, imp []float64, truthRanks []int, critical []int, runs int) (MethodScore, error) {
	ranks := pb.Ranks(imp)
	rho, err := stats.SpearmanRanks(ranks, truthRanks)
	if err != nil {
		return MethodScore{}, err
	}
	cut := EffectGap(imp)
	predicted := topByImportance(imp, cut)
	prec, rec := setScores(predicted, critical)
	return MethodScore{
		Method:    m,
		Spearman:  rho,
		Precision: prec,
		Recall:    rec,
		Runs:      runs,
	}, nil
}

// EffectGap applies the paper's significance-gap heuristic to a
// vector of importance magnitudes: order descending and cut before
// the largest drop, searched in the first half of the list only
// (trailing estimates are noise) — the float analogue of
// pb.SignificanceGap, which applies the same idea to sum-of-ranks.
// The returned count is the size of the predicted critical set.
func EffectGap(imp []float64) int {
	n := len(imp)
	if n < 3 {
		return n
	}
	order := orderDesc(imp)
	bestPos, bestDrop := 1, math.Inf(-1)
	limit := n / 2
	for i := 1; i <= limit; i++ {
		drop := imp[order[i-1]] - imp[order[i]]
		if drop > bestDrop {
			bestDrop = drop
			bestPos = i
		}
	}
	return bestPos
}

// topByImportance returns the indices of the cut largest importances
// (ties broken by index).
func topByImportance(imp []float64, cut int) []int {
	order := orderDesc(imp)
	if cut > len(order) {
		cut = len(order)
	}
	return order[:cut]
}

// orderDesc returns indices by descending value, ties by index.
func orderDesc(v []float64) []int {
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := v[order[a]], v[order[b]]
		if va > vb {
			return true
		}
		if va < vb {
			return false
		}
		return order[a] < order[b]
	})
	return order
}

// setScores computes precision and recall of a predicted index set
// against the true one.
func setScores(predicted, actual []int) (precision, recall float64) {
	inActual := map[int]bool{}
	for _, f := range actual {
		inActual[f] = true
	}
	hit := 0
	for _, f := range predicted {
		if inActual[f] {
			hit++
		}
	}
	if len(predicted) > 0 {
		precision = float64(hit) / float64(len(predicted))
	}
	if len(actual) > 0 {
		recall = float64(hit) / float64(len(actual))
	}
	return precision, recall
}

// summarize aggregates per-surface scores into the family's trust
// table. Aggregation walks surfaces in index order, so the summary is
// bit-identical regardless of evaluation order.
func summarize(fam truth.Family, scores []SurfaceScore, warnThreshold float64) FamilyReport {
	rep := FamilyReport{Family: fam, Surfaces: len(scores)}
	for mi, m := range Methods() {
		var rho, prec, rec, runs []float64
		skipped := 0
		for _, s := range scores {
			ms := s.Methods[mi]
			if ms.Skipped {
				skipped++
				continue
			}
			rho = append(rho, ms.Spearman)
			prec = append(prec, ms.Precision)
			rec = append(rec, ms.Recall)
			runs = append(runs, float64(ms.Runs))
		}
		sum := MethodSummary{Method: m, Surfaces: len(rho), Skipped: skipped}
		// A fully-skipped method keeps zero-valued estimates: NaNs
		// would poison the JSON encoding of the report.
		if len(rho) > 0 {
			sum.Spearman.Mean, sum.Spearman.Lo, sum.Spearman.Hi = stats.MeanCI95(rho)
			sum.Precision.Mean, sum.Precision.Lo, sum.Precision.Hi = stats.MeanCI95(prec)
			sum.Recall.Mean, sum.Recall.Lo, sum.Recall.Hi = stats.MeanCI95(rec)
			sum.MeanRuns = stats.Mean(runs)
			sum.Trust = sum.Recall.Mean
			sum.Warn = sum.Trust < warnThreshold
		}
		rep.Methods = append(rep.Methods, sum)
	}
	return rep
}
