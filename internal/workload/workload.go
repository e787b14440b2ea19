// Package workload defines the 13 synthetic benchmark profiles that
// substitute for the paper's SPEC 2000 / MinneSPEC workloads
// (Table 5). Each profile's statistical parameters -- instruction mix,
// code footprint, working-set size and locality, branch
// predictability, call density, dependency distances, and computation
// redundancy -- are calibrated to the published characterization of
// its namesake so that it stresses the same processor structures:
// mcf/art/ammp are memory-bound, gcc/vortex/mesa have large
// instruction footprints, gzip/bzip2 are compute-bound with small
// code, and twolf's working set fits in any L2. See DESIGN.md for the
// substitution argument.
package workload

import (
	"fmt"
	"strings"

	"pbsim/internal/trace"
)

// Workload is one benchmark of the suite.
type Workload struct {
	// Name and Type match Table 5 of the paper.
	Name string
	Type string
	// PaperInstrMillions is the dynamic instruction count the paper
	// simulated (Table 5), recorded for reporting; the synthetic
	// streams are scaled down by the harness.
	PaperInstrMillions float64
	// Params defines the synthetic stream.
	Params trace.Params
}

// NewGenerator returns a fresh deterministic instruction stream for
// the workload.
func (w *Workload) NewGenerator() (*trace.Generator, error) {
	return trace.NewGenerator(w.Params)
}

// intMix returns a SPECint-like instruction mix.
func intMix() [trace.NumClasses]float64 {
	var m [trace.NumClasses]float64
	m[trace.IntALU] = 0.65
	m[trace.IntMult] = 0.012
	m[trace.IntDiv] = 0.003
	m[trace.FPAdd] = 0.005
	m[trace.FPMult] = 0.002
	m[trace.Load] = 0.22
	m[trace.Store] = 0.10
	return m
}

// fpMix returns a SPECfp-like instruction mix.
func fpMix() [trace.NumClasses]float64 {
	var m [trace.NumClasses]float64
	m[trace.IntALU] = 0.30
	m[trace.IntMult] = 0.008
	m[trace.IntDiv] = 0.002
	m[trace.FPAdd] = 0.16
	m[trace.FPMult] = 0.09
	m[trace.FPDiv] = 0.01
	m[trace.FPSqrt] = 0.003
	m[trace.Load] = 0.30
	m[trace.Store] = 0.12
	return m
}

// All returns the full 13-benchmark suite in Table 5 order.
func All() []Workload {
	const (
		kb = 1 << 10
		mb = 1 << 20
	)
	return []Workload{
		{
			// Compression: tiny hot loops, medium data, very regular.
			Name: "gzip", Type: "Integer", PaperInstrMillions: 1364.2,
			Params: trace.Params{
				Seed: 0xC0FFEE01, Mix: intMix(),
				NumBlocks: 341, AvgBlockLen: 6, CallFraction: 0.05,
				PatternPeriod: 6, Predictability: 0.85, FarJumpFrac: 0.02,
				WorkingSetBytes: 96 * kb, TemporalFrac: 0.72, SeqFrac: 0.25, StrideBytes: 8,
				MeanDepDist:   4,
				RedundantFrac: 0.30, NumCompIDs: 2048, ZipfExponent: 1.4,
			},
		},
		{
			// Placement with randomized moves: larger code, hard
			// branches, medium data.
			Name: "vpr-Place", Type: "Integer", PaperInstrMillions: 1521.7,
			Params: trace.Params{
				Seed: 0xC0FFEE02, Mix: intMix(),
				NumBlocks: 1536, AvgBlockLen: 8, CallFraction: 0.10,
				PatternPeriod: 12, Predictability: 0.70, FarJumpFrac: 0.05,
				WorkingSetBytes: 384 * kb, TemporalFrac: 0.70, SeqFrac: 0.24, StrideBytes: 8,
				MeanDepDist:   4,
				RedundantFrac: 0.20, NumCompIDs: 2048, ZipfExponent: 1.3,
			},
		},
		{
			// Routing: graph walks over a large structure.
			Name: "vpr-Route", Type: "Integer", PaperInstrMillions: 881.1,
			Params: trace.Params{
				Seed: 0xC0FFEE03, Mix: intMix(),
				NumBlocks: 1170, AvgBlockLen: 7, CallFraction: 0.08,
				PatternPeriod: 12, Predictability: 0.75, FarJumpFrac: 0.04,
				WorkingSetBytes: 2 * mb, TemporalFrac: 0.53, SeqFrac: 0.32, StrideBytes: 16,
				MeanDepDist:   3.5,
				RedundantFrac: 0.20, NumCompIDs: 2048, ZipfExponent: 1.3,
			},
		},
		{
			// Compiler: very large instruction footprint, many calls.
			Name: "gcc", Type: "Integer", PaperInstrMillions: 4040.7,
			Params: trace.Params{
				Seed: 0xC0FFEE04, Mix: intMix(),
				NumBlocks: 4096, AvgBlockLen: 6, CallFraction: 0.15,
				PatternPeriod: 8, Predictability: 0.80, FarJumpFrac: 0.06,
				WorkingSetBytes: 768 * kb, TemporalFrac: 0.72, SeqFrac: 0.24, StrideBytes: 8,
				MeanDepDist:   4,
				RedundantFrac: 0.22, NumCompIDs: 4096, ZipfExponent: 1.3,
			},
		},
		{
			// 3D graphics library: large code, branch-sensitive,
			// moderate FP.
			Name: "mesa", Type: "Floating-Point", PaperInstrMillions: 1217.9,
			Params: trace.Params{
				Seed: 0xC0FFEE05, Mix: fpMix(),
				NumBlocks: 3277, AvgBlockLen: 5, CallFraction: 0.14,
				PatternPeriod: 4, Predictability: 0.75, FarJumpFrac: 0.06,
				WorkingSetBytes: 256 * kb, TemporalFrac: 0.70, SeqFrac: 0.26, StrideBytes: 8,
				MeanDepDist:   4.5,
				RedundantFrac: 0.18, NumCompIDs: 2048, ZipfExponent: 1.3,
			},
		},
		{
			// Neural-network simulation: tiny code, streaming over a
			// working set larger than any L2, trivially predictable
			// loop branches.
			Name: "art", Type: "Floating-Point", PaperInstrMillions: 2181.1,
			Params: trace.Params{
				Seed: 0xC0FFEE06, Mix: fpMix(),
				NumBlocks: 192, AvgBlockLen: 8, CallFraction: 0.02,
				PatternPeriod: 4, Predictability: 0.95, FarJumpFrac: 0.01,
				WorkingSetBytes: 4 * mb, TemporalFrac: 0.15, SeqFrac: 0.80, StrideBytes: 8,
				MeanDepDist:   6,
				RedundantFrac: 0.15, NumCompIDs: 1024, ZipfExponent: 1.2,
			},
		},
		{
			// Minimum-cost flow: pointer chasing over a huge graph,
			// short dependence chains, memory-bound.
			Name: "mcf", Type: "Integer", PaperInstrMillions: 601.2,
			Params: trace.Params{
				Seed: 0xC0FFEE07, Mix: intMix(),
				NumBlocks: 256, AvgBlockLen: 8, CallFraction: 0.02,
				PatternPeriod: 8, Predictability: 0.85, FarJumpFrac: 0.01,
				WorkingSetBytes: 6 * mb, TemporalFrac: 0.35, SeqFrac: 0.25, StrideBytes: 8,
				MeanDepDist:   2.5,
				RedundantFrac: 0.15, NumCompIDs: 2048, ZipfExponent: 1.2,
			},
		},
		{
			// Seismic simulation: sparse-matrix sweeps, sizeable code.
			Name: "equake", Type: "Floating-Point", PaperInstrMillions: 713.7,
			Params: trace.Params{
				Seed: 0xC0FFEE08, Mix: fpMix(),
				NumBlocks: 1536, AvgBlockLen: 8, CallFraction: 0.06,
				PatternPeriod: 6, Predictability: 0.90, FarJumpFrac: 0.04,
				WorkingSetBytes: 768 * kb, TemporalFrac: 0.55, SeqFrac: 0.41, StrideBytes: 8,
				MeanDepDist:   4,
				RedundantFrac: 0.18, NumCompIDs: 2048, ZipfExponent: 1.3,
			},
		},
		{
			// Molecular dynamics: neighbor lists over a huge data set,
			// tiny code, memory-bandwidth hungry.
			Name: "ammp", Type: "Floating-Point", PaperInstrMillions: 1228.1,
			Params: trace.Params{
				Seed: 0xC0FFEE09, Mix: fpMix(),
				NumBlocks: 128, AvgBlockLen: 6, CallFraction: 0.03,
				PatternPeriod: 6, Predictability: 0.90, FarJumpFrac: 0.01,
				WorkingSetBytes: 4 * mb, TemporalFrac: 0.30, SeqFrac: 0.45, StrideBytes: 16,
				MeanDepDist:   3.5,
				RedundantFrac: 0.15, NumCompIDs: 1024, ZipfExponent: 1.2,
			},
		},
		{
			// Natural-language parser: dictionary walks, many calls,
			// branchy.
			Name: "parser", Type: "Integer", PaperInstrMillions: 2721.6,
			Params: trace.Params{
				Seed: 0xC0FFEE0A, Mix: intMix(),
				NumBlocks: 1024, AvgBlockLen: 6, CallFraction: 0.12,
				PatternPeriod: 10, Predictability: 0.75, FarJumpFrac: 0.03,
				WorkingSetBytes: 512 * kb, TemporalFrac: 0.68, SeqFrac: 0.27, StrideBytes: 8,
				MeanDepDist:   3.5,
				RedundantFrac: 0.22, NumCompIDs: 2048, ZipfExponent: 1.4,
			},
		},
		{
			// Object-oriented database: the largest code footprint,
			// call-heavy, well-predicted branches.
			Name: "vortex", Type: "Integer", PaperInstrMillions: 1050.2,
			Params: trace.Params{
				Seed: 0xC0FFEE0B, Mix: intMix(),
				NumBlocks: 3072, AvgBlockLen: 8, CallFraction: 0.20,
				PatternPeriod: 8, Predictability: 0.85, FarJumpFrac: 0.06,
				WorkingSetBytes: 512 * kb, TemporalFrac: 0.72, SeqFrac: 0.24, StrideBytes: 8,
				MeanDepDist:   4,
				RedundantFrac: 0.20, NumCompIDs: 4096, ZipfExponent: 1.3,
			},
		},
		{
			// Compression: small hot code, block-sorting sweeps.
			Name: "bzip2", Type: "Integer", PaperInstrMillions: 2467.7,
			Params: trace.Params{
				Seed: 0xC0FFEE0C, Mix: intMix(),
				NumBlocks: 256, AvgBlockLen: 8, CallFraction: 0.04,
				PatternPeriod: 8, Predictability: 0.80, FarJumpFrac: 0.02,
				WorkingSetBytes: 512 * kb, TemporalFrac: 0.55, SeqFrac: 0.41, StrideBytes: 8,
				MeanDepDist:   4.5,
				RedundantFrac: 0.28, NumCompIDs: 2048, ZipfExponent: 1.4,
			},
		},
		{
			// Place and route: working set that fits in any L2 but
			// thrashes a small L1D; hard branches.
			Name: "twolf", Type: "Integer", PaperInstrMillions: 764.6,
			Params: trace.Params{
				Seed: 0xC0FFEE0D, Mix: intMix(),
				NumBlocks: 2048, AvgBlockLen: 6, CallFraction: 0.10,
				PatternPeriod: 10, Predictability: 0.70, FarJumpFrac: 0.05,
				WorkingSetBytes: 128 * kb, TemporalFrac: 0.70, SeqFrac: 0.25, StrideBytes: 8,
				MeanDepDist:   4,
				RedundantFrac: 0.20, NumCompIDs: 2048, ZipfExponent: 1.3,
			},
		},
	}
}

// Names returns the benchmark names in suite order.
func Names() []string {
	ws := All()
	names := make([]string, len(ws))
	for i := range ws {
		names[i] = ws[i].Name
	}
	return names
}

// ByName finds a workload by its Table 5 name.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Select resolves a comma-separated list of benchmark names, spaces
// around each name allowed, in the order given. The empty list selects
// nil, which the campaign layers read as the whole suite; an unknown
// name is an error naming it.
func Select(list string) ([]Workload, error) {
	if list == "" {
		return nil, nil
	}
	var ws []Workload
	for _, name := range strings.Split(list, ",") {
		w, err := ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}
