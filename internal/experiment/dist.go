package experiment

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"strings"

	"pbsim/internal/enhance"
	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
	"pbsim/internal/sampling"
	"pbsim/internal/sim"
	"pbsim/internal/workload"
)

// This file is the glue between the experiment harness and the
// distributed execution layer (internal/runner/dist): it translates
// an Options into a campaign manifest whose Spec lets a bare
// cmd/pbworker process reconstruct the identical task from the
// campaign directory alone, runs checkpointed suites over such a
// directory, and folds a completed merge back into the pb.Suite the
// in-memory path produces.

// Spec keys stored in the campaign manifest.
const (
	specTool       = "tool"
	specN          = "n"
	specWarmup     = "warmup"
	specFoldover   = "foldover"
	specLabel      = "label"
	specBenchmarks = "benchmarks"
	specSample     = "sample"
)

// campaignPlan is everything derivable from Options that both
// execution paths need: the defaulted options, the design, and the
// resolved workload list.
type campaignPlan struct {
	opts    Options
	design  *pb.Design
	factors []pb.Factor
	ws      []workload.Workload
}

// planCampaign fills Options defaults and validates them.
func planCampaign(opts Options) (*campaignPlan, error) {
	if opts.Instructions <= 0 {
		opts.Instructions = DefaultInstructions
	}
	if opts.Warmup < 0 {
		opts.Warmup = DefaultWarmup
	}
	if opts.Recorder == nil {
		opts.Recorder = obs.Nop{}
	}
	if err := opts.Enhance.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if opts.Sampling != nil {
		if opts.Enhance != (enhance.Spec{}) {
			return nil, fmt.Errorf("experiment: sampling cannot be combined with an enhancement (%s)", opts.Enhance)
		}
		// Normalize here so the manifest, the fingerprint, and every
		// reconstructing worker agree on one canonical spec.
		spec := opts.Sampling.Normalized()
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		opts.Sampling = &spec
	}
	ws := opts.Workloads
	if ws == nil {
		ws = workload.All()
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("experiment: empty workload list")
	}
	factors := sim.Factors()
	design, err := pb.New(len(factors), opts.Foldover)
	if err != nil {
		return nil, err
	}
	return &campaignPlan{opts: opts, design: design, factors: factors, ws: ws}, nil
}

// response is the per-row response function of workload w.
func (p *campaignPlan) response(w workload.Workload) pb.Response {
	if p.opts.Sampling != nil {
		return SampledResponse(w, p.opts.Warmup, p.opts.Instructions, *p.opts.Sampling)
	}
	return Response(w, p.opts.Warmup, p.opts.Instructions, p.opts.Enhance)
}

// runnerConfig is the row-execution config both paths share: the
// in-memory suite reads all of it, and a campaign's dist.Run reads
// everything but Parallelism and Recorder, which it takes on its own.
// Rows are scoped by the enhancement's label, so each reports as
// "label/benchmark".
func (p *campaignPlan) runnerConfig() runner.Config {
	return runner.Config{
		Parallelism: p.opts.Parallelism,
		Timeout:     p.opts.Timeout,
		Retries:     p.opts.Retries,
		Scope:       p.opts.Enhance.String(),
		Recorder:    p.opts.Recorder,
	}
}

// names lists the suite's benchmark names in workload order.
func (p *campaignPlan) names() []string {
	names := make([]string, len(p.ws))
	for i, w := range p.ws {
		names[i] = w.Name
	}
	return names
}

// runCampaign runs the suite over the campaign directory
// opts.Checkpoint with Parallelism in-process workers (dist.Run):
// a new directory becomes a campaign, one holding the same
// fingerprint resumes, and one holding another fingerprint is
// refused by dist.Create, naming both.
func (p *campaignPlan) runCampaign(ctx context.Context) (*pb.Suite, error) {
	c, err := dist.Create(p.opts.Checkpoint, p.manifest())
	if err != nil {
		return nil, err
	}
	task, err := p.task(c.Manifest())
	if err != nil {
		return nil, err
	}
	res, err := dist.Run(ctx, c.Dir(), task, p.opts.Parallelism, dist.Config{
		Sync:     p.opts.Sync,
		Runner:   p.runnerConfig(),
		Recorder: p.opts.Recorder,
	})
	if err != nil {
		return nil, err
	}
	return p.suite(res)
}

// CampaignManifest builds the dist manifest for opts: one scope per
// benchmark with Design.Runs() rows each, fingerprinted as Fingerprint
// does, and a Spec from which OptionsFromSpec reconstructs the task;
// its label key carries the enhancement's canonical string.
func CampaignManifest(opts Options) (dist.Manifest, error) {
	p, err := planCampaign(opts)
	if err != nil {
		return dist.Manifest{}, err
	}
	return p.manifest(), nil
}

func (p *campaignPlan) manifest() dist.Manifest {
	man := dist.Manifest{Fingerprint: Fingerprint(p.design, p.opts)}
	for _, w := range p.ws {
		man.Scopes = append(man.Scopes, dist.ScopeSpec{Name: w.Name, Rows: p.design.Runs()})
	}
	man.Spec = map[string]string{
		specTool:       "pbrank",
		specN:          strconv.FormatInt(p.opts.Instructions, 10),
		specWarmup:     strconv.FormatInt(p.opts.Warmup, 10),
		specFoldover:   strconv.FormatBool(p.opts.Foldover),
		specLabel:      p.opts.Enhance.String(),
		specBenchmarks: strings.Join(p.names(), ","),
	}
	if p.opts.Sampling != nil {
		man.Spec[specSample] = p.opts.Sampling.String()
	}
	return man
}

// OptionsFromSpec reconstructs the experiment Options a joining
// worker needs from a campaign manifest written by CampaignManifest.
// It accepts only the canonical spec of the options it decodes to, the
// map CampaignManifest writes for them. The caller must still verify
// the reconstruction by comparing the recomputed fingerprint against
// the manifest's (CampaignTask does).
func OptionsFromSpec(spec map[string]string) (Options, error) {
	var opts Options
	if tool := spec[specTool]; tool != "pbrank" {
		return opts, fmt.Errorf("experiment: campaign spec is for tool %q, not a pbrank experiment", tool)
	}
	var err error
	if opts.Instructions, err = strconv.ParseInt(spec[specN], 10, 64); err != nil {
		return opts, fmt.Errorf("experiment: campaign spec %s: %w", specN, err)
	}
	if opts.Warmup, err = strconv.ParseInt(spec[specWarmup], 10, 64); err != nil {
		return opts, fmt.Errorf("experiment: campaign spec %s: %w", specWarmup, err)
	}
	if opts.Foldover, err = strconv.ParseBool(spec[specFoldover]); err != nil {
		return opts, fmt.Errorf("experiment: campaign spec %s: %w", specFoldover, err)
	}
	if opts.Enhance, err = enhance.ParseSpec(spec[specLabel]); err != nil {
		return opts, fmt.Errorf("experiment: campaign spec %s: %w", specLabel, err)
	}
	if text, ok := spec[specSample]; ok {
		s, err := sampling.ParseSpec(text)
		if err != nil {
			return opts, fmt.Errorf("experiment: campaign spec %s: %w", specSample, err)
		}
		opts.Sampling = &s
	}
	for _, name := range strings.Split(spec[specBenchmarks], ",") {
		w, err := workload.ByName(name)
		if err != nil {
			return opts, fmt.Errorf("experiment: campaign spec %s: %w", specBenchmarks, err)
		}
		opts.Workloads = append(opts.Workloads, w)
	}
	man, err := CampaignManifest(opts)
	if err == nil && !maps.Equal(man.Spec, spec) {
		err = fmt.Errorf("experiment: campaign spec %v is not canonical", spec)
	}
	return opts, err
}

// CampaignTask builds the dist.Task for opts and validates it against
// the manifest the task will execute under: the fingerprint recomputed
// from opts must equal man.Fingerprint, so a worker reconstructed from
// a Spec (or handed divergent flags) can never commit rows computed
// under different budgets into someone else's campaign.
func CampaignTask(opts Options, man dist.Manifest) (dist.Task, error) {
	p, err := planCampaign(opts)
	if err != nil {
		return nil, err
	}
	return p.task(man)
}

func (p *campaignPlan) task(man dist.Manifest) (dist.Task, error) {
	if fp := Fingerprint(p.design, p.opts); fp != man.Fingerprint {
		return nil, fmt.Errorf("experiment: options fingerprint %q does not match campaign %q", fp, man.Fingerprint)
	}
	byName := make(map[string]pb.Response, len(p.ws))
	for _, w := range p.ws {
		byName[w.Name] = p.response(w)
	}
	for _, s := range man.Scopes {
		if byName[s.Name] == nil {
			return nil, fmt.Errorf("experiment: campaign scope %q is not among this worker's benchmarks", s.Name)
		}
		if s.Rows != p.design.Runs() {
			return nil, fmt.Errorf("experiment: campaign scope %q has %d rows, design needs %d", s.Name, s.Rows, p.design.Runs())
		}
	}
	design := p.design
	return func(ctx context.Context, scope string, row int) (float64, error) {
		resp, ok := byName[scope]
		if !ok {
			return 0, fmt.Errorf("experiment: unknown scope %q", scope)
		}
		if row < 0 || row >= design.Runs() {
			return 0, fmt.Errorf("experiment: row %d outside design with %d runs", row, design.Runs())
		}
		return resp(ctx, design.Row(row))
	}, nil
}

// SuiteFromMerge folds a complete merge back into the pb.Suite the
// in-memory path produces from the same options: identical effects,
// ranks, and sum-of-ranks ordering, because the response vectors are
// bit-identical. An incomplete merge is an error — a partial campaign
// must never rank parameters.
func SuiteFromMerge(opts Options, m *dist.MergeResult) (*pb.Suite, error) {
	p, err := planCampaign(opts)
	if err != nil {
		return nil, err
	}
	return p.suite(m)
}

func (p *campaignPlan) suite(m *dist.MergeResult) (*pb.Suite, error) {
	if fp := Fingerprint(p.design, p.opts); fp != m.Fingerprint {
		return nil, fmt.Errorf("experiment: options fingerprint %q does not match merged campaign %q", fp, m.Fingerprint)
	}
	vecs := make([][]float64, len(p.ws))
	for i, w := range p.ws {
		vec, err := m.Responses(w.Name)
		if err != nil {
			return nil, err
		}
		vecs[i] = vec
	}
	return pb.SuiteFromResponses(p.design, p.factors, p.names(), vecs)
}
