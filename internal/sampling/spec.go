// Package sampling implements region-sampled simulation with
// statistically quantified error. A workload's measured window is
// partitioned into fixed-size instruction regions; a deterministic,
// seeded estimator selects a subset to detail-simulate; and the
// whole-program CPI is extrapolated from the sampled regions together
// with a 95% confidence interval on the extrapolation.
//
// Three estimators trade accuracy against detailed-simulation budget:
//
//   - uniform: systematic sampling with a seeded phase — the SMARTS
//     baseline. No pre-pass; variance is estimated with the
//     simple-random-sampling formula plus finite-population
//     correction.
//   - stratified: two-phase sampling (Ekman & Stenström). A cheap
//     functional proxy pass scores every region, regions are
//     stratified into proxy quantiles, and the detailed budget is
//     allocated proportionally across strata; within-stratum variances
//     combine into a tighter interval whenever the proxy correlates
//     with cost.
//   - rankedset: ranked-set sampling with repeated subsampling. Each
//     cycle draws small sets of regions, ranks them by the proxy
//     (cheap judgment ranking), and detail-simulates one designated
//     rank per set; the between-cycle variance of cycle means
//     estimates the interval.
//
// Selection is a pure function of (workload parameters, window, Spec),
// so sampled runs are bit-reproducible and every design row of a PB
// experiment measures the identical region set.
package sampling

import (
	"fmt"
	"strconv"
	"strings"
)

// Estimator names accepted by Spec.Estimator.
const (
	EstimatorUniform    = "uniform"
	EstimatorStratified = "stratified"
	EstimatorRankedSet  = "rankedset"
)

// Defaults substituted by Normalized for zero-valued Spec fields.
const (
	DefaultRegionSize = 1000
	DefaultFraction   = 0.1
	DefaultStrata     = 4
	DefaultSetSize    = 3
	// DefaultSeed is ParseSpec's seed for text that names none; zero
	// is a valid seed, so Normalized leaves Seed as it is.
	DefaultSeed = 1
)

// minRegionSize keeps a region comfortably larger than the pipeline's
// in-flight window (IFQ + ROB), so per-region cycle counts measured
// off one continuous pipeline are dominated by the region itself.
const minRegionSize = 256

// Spec configures one sampled simulation. The zero value of a field
// selects its default (see Normalized); RegionWarmup uses -1 for the
// default because 0 legitimately disables per-region warmup.
type Spec struct {
	// Estimator selects the sampling scheme: uniform, stratified, or
	// rankedset.
	Estimator string
	// RegionSize is the instruction length of one region.
	RegionSize int64
	// Fraction is the target fraction of regions to detail-simulate,
	// in (0, 1]. The detailed budget is round(Fraction * regions),
	// clamped to at least one region; a budget covering every region
	// degenerates to the exact full-simulation path.
	Fraction float64
	// RegionWarmup is the number of detail-simulated warmup
	// instructions immediately before each sampled region (merged for
	// adjacent regions); negative selects RegionSize/4, zero disables.
	RegionWarmup int64
	// FuncWarmup is the number of functionally-warmed instructions
	// before each region's detailed warmup: the stream trains the
	// branch predictor, BTB, RAS, caches and TLBs at generator-walk
	// cost, without cycle accounting. This is what removes the sampled
	// path's cold-start bias (history-dependent predictor state cannot
	// be rebuilt by a short detailed warmup). Negative selects
	// 8*RegionSize, zero disables.
	FuncWarmup int64
	// Seed drives region selection. The per-workload selection stream
	// mixes Seed with the workload's own seed, so benchmarks sample
	// independent region sets while staying bit-reproducible.
	Seed uint64
	// Strata is the number of proxy-quantile strata (stratified only).
	Strata int
	// SetSize is the judgment-ranking set size k (rankedset only).
	SetSize int
}

// Normalized returns the spec with defaults substituted for zero
// values. Fingerprints and schedules both key off the normalized
// form, so equivalent specs are never treated as distinct.
func (s Spec) Normalized() Spec {
	if s.Estimator == "" {
		s.Estimator = EstimatorUniform
	}
	if s.RegionSize == 0 {
		s.RegionSize = DefaultRegionSize
	}
	if s.Fraction == 0 { //pbcheck:ignore floateq zero-value sentinel for an unset config field, exact by construction
		s.Fraction = DefaultFraction
	}
	if s.RegionWarmup < 0 {
		s.RegionWarmup = s.RegionSize / 4
	}
	if s.FuncWarmup < 0 {
		s.FuncWarmup = 8 * s.RegionSize
	}
	if s.Strata == 0 {
		s.Strata = DefaultStrata
	}
	if s.SetSize == 0 {
		s.SetSize = DefaultSetSize
	}
	return s
}

// Validate reports the first structural problem with the (normalized)
// spec.
func (s Spec) Validate() error {
	if _, err := ByName(s.Estimator); err != nil {
		return err
	}
	if s.RegionSize < minRegionSize {
		return fmt.Errorf("sampling: region size %d below the minimum %d (regions must exceed the pipeline's in-flight window)", s.RegionSize, minRegionSize)
	}
	if !(s.Fraction > 0 && s.Fraction <= 1) {
		return fmt.Errorf("sampling: fraction %v outside (0, 1]", s.Fraction)
	}
	if s.RegionWarmup < 0 {
		return fmt.Errorf("sampling: region warmup %d negative", s.RegionWarmup)
	}
	if s.FuncWarmup < 0 {
		return fmt.Errorf("sampling: functional warmup %d negative", s.FuncWarmup)
	}
	if s.Strata < 1 {
		return fmt.Errorf("sampling: strata %d, need >= 1", s.Strata)
	}
	if s.SetSize < 2 {
		return fmt.Errorf("sampling: set size %d, need >= 2", s.SetSize)
	}
	return nil
}

// String renders the normalized spec in the canonical key=value form
// ParseSpec inverts. It is embedded in experiment fingerprints, so two
// textually equal specs are guaranteed to select identical regions.
func (s Spec) String() string {
	n := s.Normalized()
	return fmt.Sprintf("est=%s,region=%d,frac=%s,warm=%d,fwarm=%d,seed=%d,strata=%d,set=%d",
		n.Estimator, n.RegionSize, strconv.FormatFloat(n.Fraction, 'g', -1, 64),
		n.RegionWarmup, n.FuncWarmup, n.Seed, n.Strata, n.SetSize)
}

// ParseSpec inverts String: it reconstructs a spec from the canonical
// key=value form, so a distributed worker can rebuild the exact
// sampling schedule from a campaign fingerprint alone. It also reads
// the -sample flag's text: a key the text leaves out takes its default
// (DefaultSeed for seed, Normalized's for the rest), and a bare
// estimator name is shorthand for est=<name>.
func ParseSpec(text string) (Spec, error) {
	s := Spec{RegionWarmup: -1, FuncWarmup: -1, Seed: DefaultSeed}
	if !strings.Contains(text, "=") {
		text = "est=" + text
	}
	for _, kv := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return s, fmt.Errorf("sampling: spec field %q is not key=value", kv)
		}
		var err error
		switch k {
		case "est":
			s.Estimator = v
		case "region":
			s.RegionSize, err = strconv.ParseInt(v, 10, 64)
		case "frac":
			s.Fraction, err = strconv.ParseFloat(v, 64)
		case "warm":
			s.RegionWarmup, err = strconv.ParseInt(v, 10, 64)
		case "fwarm":
			s.FuncWarmup, err = strconv.ParseInt(v, 10, 64)
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 10, 64)
		case "strata":
			s.Strata, err = strconv.Atoi(v)
		case "set":
			s.SetSize, err = strconv.Atoi(v)
		default:
			return s, fmt.Errorf("sampling: unknown spec key %q", k)
		}
		if err != nil {
			return s, fmt.Errorf("sampling: spec key %s: %w", k, err)
		}
	}
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}
