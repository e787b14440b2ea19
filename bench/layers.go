package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pbsim/internal/analysis"
	"pbsim/internal/experiment"
	"pbsim/internal/pb"
	"pbsim/internal/sampling"
	"pbsim/internal/sim"
	"pbsim/internal/stats"
)

const (
	// replayStride picks the replayed rows: every 8th design row of each
	// benchmark, 11 of 88, 143 rows in all.
	replayStride = 8
	// probeInstrs is the Generator.Next and Generator.Skip probe length
	// per benchmark.
	probeInstrs = 200_000
)

// replayTotals holds the counts the replay's spans do not carry.
type replayTotals struct {
	detailedInstr  float64   // instructions under the detailed spans
	detailedCycles float64   // and their cycles
	funcInstr      float64   // instructions under sim.WarmFunctional spans
	model          sim.Stats // modelled statistics of the detailed calls, summed

	sampledRows       int
	sampledDetailed   float64
	sampledFunctional float64
	sampledRegions    float64
}

func (t *replayTotals) addStats(st sim.Stats) {
	m := &t.model
	m.Instructions += st.Instructions
	m.Cycles += st.Cycles
	m.ControlInstrs += st.ControlInstrs
	m.Mispredicts += st.Mispredicts
	m.L1D.Accesses += st.L1D.Accesses
	m.L1D.Misses += st.L1D.Misses
	m.L2.Accesses += st.L2.Accesses
	m.L2.Misses += st.L2.Misses
	m.DRAMAccesses += st.DRAMAccesses
}

// traceLayers is the traced rep's second half. It measures the layers
// this workload runs (measureLayers), writes the spans, and measures
// each layer it never enters (lint-sweep runs no simulator; the
// campaigns run no static analysis; only one samples, only one is
// distributed) on a smoke-sized traced rep of the workload that does,
// so that every per-layer metric is a measurement on every workload.
func traceLayers(ctx context.Context, c repConfig, p *prepared, out *outcome, tr *tracer, rec *recorder, work int) (map[string]float64, error) {
	m, x, err := measureLayers(ctx, c, p, out, tr, rec, work)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(c.Out, p.w.Name, x); err != nil {
		return nil, err
	}
	for _, o := range workloadsFor(true) {
		if o.Name == p.w.Name {
			continue
		}
		om, err := smokeLayers(ctx, c, o)
		if err != nil {
			return nil, fmt.Errorf("smoke-sized %s: %w", o.Name, err)
		}
		for _, d := range perLayer() {
			if _, ok := m[d.Name]; !ok {
				if v, ok := om[d.Name]; ok {
					m[d.Name] = v
				}
			}
		}
	}
	return m, nil
}

// smokeLayers runs a traced rep of o in this process and returns the
// per-layer metrics of the layers it runs.
func smokeLayers(ctx context.Context, c repConfig, o benchWorkload) (map[string]float64, error) {
	tr := newTracer()
	p, err := setup(o, c.Seed, c.Repo, tr)
	if err != nil {
		return nil, err
	}
	work := tr.begin("bench.work", -1, "")
	rec := recorderFor(o, tr, work)
	out, err := run(ctx, p, tr, rec, work)
	tr.end(work)
	if err := errors.Join(err, p.cleanup()); err != nil {
		return nil, err
	}
	m, _, err := measureLayers(ctx, c, p, out, tr, rec, work)
	return m, err
}

// measureLayers probes the generator, times the PB analysis, replays
// sampled design rows through the same public calls the campaign made
// (failing on any value that is not bit-equal to the campaign's),
// scores a sampled campaign against full simulation, and derives the
// metrics of the layers the workload ran.
func measureLayers(ctx context.Context, c repConfig, p *prepared, out *outcome, tr *tracer, rec *recorder, work int) (map[string]float64, spanIndex, error) {
	var tot replayTotals
	var spearman, cpiErr float64
	if out.suite != nil {
		probeGenerators(p, tr)
		s := tr.begin("pb.SuiteFromResponses", -1, "")
		_, err := pb.SuiteFromResponses(p.design, sim.Factors(), out.suite.Benchmarks, out.responses())
		tr.end(s)
		if err != nil {
			return nil, spanIndex{}, err
		}
		if err := replay(p, out.responses(), tr, &tot); err != nil {
			return nil, spanIndex{}, err
		}
		if p.w.Sampling != nil {
			if spearman, cpiErr, err = scoreSampled(ctx, c, p, out, tr); err != nil {
				return nil, spanIndex{}, err
			}
		}
	}
	x := indexSpans(tr.snapshot())
	m := layerMetrics(p, out, x, rec, &tot, work)
	if p.w.Sampling != nil {
		m["sampling.spearman"], m["sampling.cpi_err_pct"] = spearman, cpiErr
	}
	return m, x, nil
}

// probeGenerators times Generator.Next and Generator.Skip on each
// benchmark's fresh set-up generator.
func probeGenerators(p *prepared, tr *tracer) {
	for i, gen := range p.gens {
		name := p.opts.Workloads[i].Name
		s := tr.begin("probe.Next", -1, name)
		for j := 0; j < probeInstrs; j++ {
			gen.Next()
		}
		tr.end(s)
		s = tr.begin("probe.Skip", -1, name)
		gen.Skip(probeInstrs)
		tr.end(s)
	}
}

// replay re-runs every replayStride-th row of each benchmark.
func replay(p *prepared, responses [][]float64, tr *tracer, tot *replayTotals) error {
	for bi := range p.opts.Workloads {
		for r := 0; r < p.design.Runs(); r += replayStride {
			if err := replayRow(p, bi, r, responses[bi][r], tr, tot); err != nil {
				return err
			}
			if p.w.Sampling != nil {
				if err := probeSampledRow(p, bi, r, tr, tot); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// replayRow repeats experiment.Response (NewGenerator, sim.New,
// PrewarmMemory, RunWithWarmup) or experiment.SampledResponse
// (NewGenerator, sampling.Run) for one row, one span per call.
func replayRow(p *prepared, bi, r int, want float64, tr *tracer, tot *replayTotals) error {
	w := &p.opts.Workloads[bi]
	id := rowID(w.Name, r)
	row := tr.begin("replay.row", -1, id)
	defer tr.end(row)
	s := tr.begin("trace.NewGenerator", row, id)
	gen, err := w.NewGenerator()
	tr.end(s)
	if err != nil {
		return err
	}
	cfg := sim.ConfigForLevels(p.design.Row(r))
	var got float64
	if p.w.Sampling != nil {
		s = tr.begin("sampling.Run", row, id)
		res, err := sampling.Run(cfg, gen, p.w.Warmup, p.w.Instructions, *p.w.Sampling)
		tr.end(s)
		if err != nil {
			return err
		}
		tot.sampledRows++
		tot.sampledDetailed += float64(res.DetailedInstructions)
		tot.sampledFunctional += float64(res.FunctionalInstructions)
		tot.sampledRegions += float64(res.SampledRegions)
		got = res.Cycles
	} else {
		s = tr.begin("sim.New", row, id)
		cpu, err := sim.New(cfg, gen, nil)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("sim.PrewarmMemory", row, id)
		cpu.PrewarmMemory()
		tr.end(s)
		s = tr.begin("sim.RunWithWarmup", row, id)
		st, err := cpu.RunWithWarmup(p.w.Warmup, p.w.Instructions)
		tr.end(s)
		if err != nil {
			return err
		}
		tot.addStats(st)
		// The warmup's cycles are not reported; count them at the
		// measured window's CPI.
		all := float64(p.w.Warmup + p.w.Instructions)
		tot.detailedInstr += all
		tot.detailedCycles += float64(st.Cycles) * all / float64(st.Instructions)
		got = float64(st.Cycles)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("replayed row %s = %.17g, the campaign's response is %.17g", id, got, want)
	}
	return nil
}

// probeSampledRow opens sampling.Run's black box from outside: on the
// row's configuration it times one region's worth of the calls Run
// makes per region group (sim.New, PrewarmMemory, WarmFunctional over
// the spec's functional warmup, then one region of RunMore), from the
// start of the stream.
func probeSampledRow(p *prepared, bi, r int, tr *tracer, tot *replayTotals) error {
	w := &p.opts.Workloads[bi]
	id := rowID(w.Name, r)
	spec := p.w.Sampling.Normalized()
	probe := tr.begin("replay.probe", -1, id)
	defer tr.end(probe)
	gen, err := w.NewGenerator()
	if err != nil {
		return err
	}
	s := tr.begin("sim.New", probe, id)
	cpu, err := sim.New(sim.ConfigForLevels(p.design.Row(r)), gen, nil)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("sim.PrewarmMemory", probe, id)
	cpu.PrewarmMemory()
	tr.end(s)
	s = tr.begin("sim.WarmFunctional", probe, id)
	cpu.WarmFunctional(spec.FuncWarmup)
	tr.end(s)
	s = tr.begin("sim.RunMore", probe, id)
	st, err := cpu.RunMore(spec.RegionSize)
	tr.end(s)
	if err != nil {
		return err
	}
	tot.funcInstr += float64(spec.FuncWarmup)
	tot.detailedInstr += float64(st.Instructions)
	tot.detailedCycles += float64(st.Cycles)
	tot.addStats(st)
	return nil
}

// scoreSampled compares the sampled campaign with full simulation of
// the same window: Spearman of the two Table 9 orders, and the mean
// |sampled/full - 1| over every response, in percent. At seed 0 the
// full responses are the committed ones; otherwise they are simulated
// here.
func scoreSampled(ctx context.Context, c repConfig, p *prepared, out *outcome, tr *tracer) (rho, errPct float64, err error) {
	truth, err := loadTruth(c.Testdata, p.w, c.Seed)
	if err != nil {
		return 0, 0, err
	}
	if truth == nil {
		opts := p.opts
		opts.Sampling = nil
		s := tr.begin("truth.RunSuiteCtx", -1, "")
		full, err := experiment.RunSuiteCtx(ctx, opts)
		tr.end(s)
		if err != nil {
			return 0, 0, err
		}
		truth = (&outcome{suite: full}).responses()
	}
	ts, err := pb.SuiteFromResponses(p.design, sim.Factors(), out.suite.Benchmarks, truth)
	if err != nil {
		return 0, 0, err
	}
	rho, err = stats.SpearmanRanks(rankPermutation(ts.Order), rankPermutation(out.suite.Order))
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	var n int
	for bi, vec := range out.responses() {
		for r, v := range vec {
			sum += math.Abs(v/truth[bi][r] - 1)
			n++
		}
	}
	return rho, 100 * sum / float64(n), nil
}

// layerMetrics derives the per-layer metrics from the spans, the
// recorder and the replay's counts.
func layerMetrics(p *prepared, out *outcome, x spanIndex, rec *recorder, tot *replayTotals, work int) map[string]float64 {
	m := make(map[string]float64)
	// Every denominator is a count, a duration or a product of them.
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	// perCall is the mean duration of the spans in unit nanoseconds.
	perCall := func(t layerTotal, unit float64) float64 { return ratio(float64(t.Dur)/unit, float64(t.Count)) }
	dur := func(name, parent string) float64 { return float64(x.total(name, parent).Dur) }
	workS := float64(x.spans[work].dur()) / 1e9

	if p.w.Kind == kindLint {
		st := out.stats
		m["analysis.load_s"] = dur("analysis.Load", "") / 1e9
		m["analysis.facts_s"] = st.FactBuild.Seconds()
		m["analysis.pointsto_s"] = st.PointsTo.Seconds()
		m["analysis.rules_wall_s"] = st.RuleWall.Seconds()
		m["analysis.rules_seq_s"] = st.RuleSeq.Seconds()
		for _, r := range st.Rules {
			m["analysis.rule_ms."+r.Rule] = float64(r.Time) / float64(time.Millisecond)
		}
		m["analysis.packages"] = float64(out.packages)
		m["analysis.universe_packages"] = float64(out.universe)
		m["analysis.findings"] = float64(len(out.diags))
		m["analysis.active_findings"] = float64(analysis.Active(out.diags))
		return m
	}

	r := rec.summary(x)
	lat := durationsMs(r.latencies)
	var latSum float64
	for _, l := range lat {
		latSum += l
	}
	m["runner.row_ms.p50"] = quantile(lat, 50, 100)
	m["runner.row_ms.p99"] = quantile(lat, 99, 100)
	m["runner.busy_frac"] = ratio(latSum/1e3, workS*workers)
	m["runner.attempts"] = float64(len(lat))
	m["runner.retries"] = float64(r.retries)
	m["runner.rows_failed"] = float64(r.rowsFailed)
	m["experiment.campaign_s"] = workS

	m["trace.program_ms"] = perCall(x.total("trace.NewGenerator", "setup"), 1e6)
	m["trace.next_ns"] = ratio(dur("probe.Next", ""), float64(len(p.gens)*probeInstrs))
	m["trace.skip_ns"] = ratio(dur("probe.Skip", ""), float64(len(p.gens)*probeInstrs))

	m["sim.new_us"] = perCall(x.total("sim.New", ""), 1e3)
	m["sim.prewarm_ms"] = perCall(x.total("sim.PrewarmMemory", ""), 1e6)
	detailed := dur("sim.RunWithWarmup", "") + dur("sim.RunMore", "")
	m["sim.detailed_ns_per_instr"] = ratio(detailed, tot.detailedInstr)
	m["sim.detailed_ns_per_cycle"] = ratio(detailed, tot.detailedCycles)
	if tot.funcInstr > 0 {
		m["sim.functional_ns_per_instr"] = dur("sim.WarmFunctional", "") / tot.funcInstr
	}
	rows := dur("replay.row", "")
	m["sim.share.gen"] = ratio(dur("trace.NewGenerator", "replay.row"), rows)
	m["sim.share.new"] = ratio(dur("sim.New", "replay.row"), rows)
	m["sim.share.prewarm"] = ratio(dur("sim.PrewarmMemory", "replay.row"), rows)
	m["sim.share.detailed"] = ratio(dur("sim.RunWithWarmup", "replay.row"), rows)
	st := tot.model
	m["sim.ipc"] = ratio(float64(st.Instructions), float64(st.Cycles))
	m["cache.l1d_miss_rate"] = ratio(float64(st.L1D.Misses), float64(st.L1D.Accesses))
	m["cache.l2_miss_rate"] = ratio(float64(st.L2.Misses), float64(st.L2.Accesses))
	m["cache.dram_per_kinstr"] = ratio(1000*float64(st.DRAMAccesses), float64(st.Instructions))
	m["bpred.mispredict_rate"] = ratio(float64(st.Mispredicts), float64(st.ControlInstrs))

	if p.w.Sampling != nil {
		n := float64(tot.sampledRows)
		rowMs := perCall(x.total("sampling.Run", "replay.row"), 1e6)
		m["sampling.schedule_ms"] = perCall(x.total("sampling.CostOf", "setup"), 1e6)
		m["sampling.row_ms"] = rowMs
		m["sampling.detailed_instr_per_row"] = ratio(tot.sampledDetailed, n)
		m["sampling.functional_instr_per_row"] = ratio(tot.sampledFunctional, n)
		m["sampling.regions_per_row"] = ratio(tot.sampledRegions, n)
		m["sampling.prewarm_share_max"] = ratio(ratio(tot.sampledRegions, n)*m["sim.prewarm_ms"], rowMs)
	}

	if p.w.Kind == kindDist {
		m["dist.create_ms"] = dur("dist.Create", "") / 1e6
		m["dist.merge_ms"] = dur("dist.Merge", "") / 1e6
		m["dist.tail_idle_s"] = r.tailIdleS
		m["dist.overhead_ms_per_unit"] = ratio(dur("dist.RunWorker", "")/1e6-latSum, float64(r.commits))
		m["dist.leases_claimed"] = float64(r.claimed)
		m["dist.leases_stolen"] = float64(r.stolen)
		m["dist.leases_lost"] = float64(r.lost)
		m["dist.commits"] = float64(r.commits)
		m["dist.useful_ratio"] = ratio(float64(r.commits), float64(r.claimed))
	}
	m["pb.analysis_ms"] = dur("pb.SuiteFromResponses", "") / 1e6
	return m
}
