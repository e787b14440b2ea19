// Package sim implements a cycle-level superscalar out-of-order
// processor simulator equivalent in parameterization to the modified
// SimpleScalar sim-outorder used by the paper: every user-visible
// parameter of Tables 6-8 is present, including the coupling rules for
// the gray-shaded parameters (LSQ size as a fraction of the ROB,
// D-TLB page size and latency following the I-TLB, unpipelined
// divide/square-root units, and following-block memory latency fixed
// at 0.02x the first-block latency).
package sim

import (
	"fmt"
	"math"

	"pbsim/internal/sim/cache"
)

// PredictorKind selects the branch predictor: Table 6's "Branch
// Predictor" low and high values, TwoLevel and Perfect.
type PredictorKind int

// Supported predictor kinds.
const (
	PredTwoLevel PredictorKind = iota
	PredPerfect
)

func (k PredictorKind) String() string {
	switch k {
	case PredTwoLevel:
		return "2-Level"
	case PredPerfect:
		return "Perfect"
	default:
		return fmt.Sprintf("PredictorKind(%d)", int(k))
	}
}

// FullyAssociative mirrors cache.FullyAssociative for configuration
// readability.
const FullyAssociative = cache.FullyAssociative

// Config holds every processor parameter of Tables 6-8.
type Config struct {
	// --- processor core (Table 6) ---

	// IFQEntries is the instruction fetch queue capacity.
	IFQEntries int
	// Predictor selects the branch predictor.
	Predictor PredictorKind
	// MispredictPenalty is the front-end refill penalty in cycles
	// charged after a mispredicted control instruction resolves.
	MispredictPenalty int
	// RASEntries sizes the return address stack.
	RASEntries int
	// BTBEntries and BTBAssoc size the branch target buffer
	// (FullyAssociative allowed).
	BTBEntries, BTBAssoc int
	// SpecUpdate selects speculative branch-predictor update in decode
	// (true) versus update in commit (false).
	SpecUpdate bool
	// Width is the decode, issue and commit width; the paper fixes it
	// at 4.
	Width int
	// ROBEntries sizes the reorder buffer.
	ROBEntries int
	// LSQRatio sizes the load-store queue as a fraction of the ROB
	// (the paper couples LSQ = {0.25, 1.0} x ROB).
	LSQRatio float64
	// MemPorts is the number of cache ports usable per cycle.
	MemPorts int

	// --- functional units (Table 7) ---

	IntALUs     int
	IntALULat   int // throughput fixed at 1 (pipelined)
	FPALUs      int
	FPALULat    int // throughput fixed at 1 (pipelined)
	IntMultDivs int
	IntMultLat  int // throughput 1 (pipelined)
	IntDivLat   int // throughput = latency (unpipelined)
	FPMultDivs  int
	FPMultLat   int // throughput = latency (unpipelined)
	FPDivLat    int // throughput = latency (unpipelined)
	FPSqrtLat   int // throughput = latency (unpipelined)

	// --- memory hierarchy (Table 8) ---

	L1ISizeKB, L1IAssoc, L1IBlock, L1ILat int
	L1DSizeKB, L1DAssoc, L1DBlock, L1DLat int
	L2SizeKB, L2Assoc, L2Block, L2Lat     int
	// MemLatFirst is the first-block DRAM latency; the following-block
	// latency is derived as 0.02 x MemLatFirst (coupled parameter).
	MemLatFirst int
	// MemBWBytes is the memory bus width in bytes per chunk.
	MemBWBytes int
	// ITLBEntries/ITLBAssoc/ITLBLat and DTLBEntries/DTLBAssoc size the
	// TLBs; the D-TLB page size and latency follow the I-TLB (coupled
	// parameters).
	ITLBEntries, ITLBAssoc, ITLBLat int
	DTLBEntries, DTLBAssoc          int
	// PageKB is the (shared) page size in KB.
	PageKB int
}

// Default returns the mid-range baseline configuration used outside of
// PB experiments: values chosen inside the paper's "range of
// reasonable values" for a 4-way superscalar processor.
func Default() Config {
	return Config{
		IFQEntries:        16,
		Predictor:         PredTwoLevel,
		MispredictPenalty: 6,
		RASEntries:        16,
		BTBEntries:        128,
		BTBAssoc:          4,
		SpecUpdate:        true,
		Width:             4,
		ROBEntries:        32,
		LSQRatio:          0.5,
		MemPorts:          2,

		IntALUs:     2,
		IntALULat:   1,
		FPALUs:      2,
		FPALULat:    2,
		IntMultDivs: 1,
		IntMultLat:  4,
		IntDivLat:   20,
		FPMultDivs:  1,
		FPMultLat:   4,
		FPDivLat:    15,
		FPSqrtLat:   20,

		L1ISizeKB: 32, L1IAssoc: 2, L1IBlock: 32, L1ILat: 1,
		L1DSizeKB: 32, L1DAssoc: 2, L1DBlock: 32, L1DLat: 2,
		L2SizeKB: 1024, L2Assoc: 4, L2Block: 128, L2Lat: 12,
		MemLatFirst: 100,
		MemBWBytes:  16,
		ITLBEntries: 64, ITLBAssoc: 4, ITLBLat: 40,
		DTLBEntries: 64, DTLBAssoc: 4,
		PageKB: 4,
	}
}

// LSQEntries derives the load-store queue size from the coupled ratio,
// never below one entry.
func (c *Config) LSQEntries() int {
	n := int(math.Round(c.LSQRatio * float64(c.ROBEntries)))
	if n < 1 {
		n = 1
	}
	return n
}

// MemLatRest derives the following-block latency as 0.02 x first,
// never below one cycle.
func (c *Config) MemLatRest() int {
	n := int(math.Round(0.02 * float64(c.MemLatFirst)))
	if n < 1 {
		n = 1
	}
	return n
}

// Validate reports the first invalid parameter.
func (c *Config) Validate() error {
	checks := []struct {
		ok   bool
		name string
	}{
		{c.IFQEntries >= 1, "IFQEntries"},
		{c.MispredictPenalty >= 0, "MispredictPenalty"},
		{c.RASEntries >= 1, "RASEntries"},
		{c.BTBEntries >= 1, "BTBEntries"},
		{c.Width >= 1, "Width"},
		{c.ROBEntries >= 1, "ROBEntries"},
		{c.LSQRatio > 0, "LSQRatio"},
		{c.MemPorts >= 1, "MemPorts"},
		{c.IntALUs >= 1 && c.IntALULat >= 1, "IntALUs/IntALULat"},
		{c.FPALUs >= 1 && c.FPALULat >= 1, "FPALUs/FPALULat"},
		{c.IntMultDivs >= 1 && c.IntMultLat >= 1 && c.IntDivLat >= 1, "IntMultDivs"},
		{c.FPMultDivs >= 1 && c.FPMultLat >= 1 && c.FPDivLat >= 1 && c.FPSqrtLat >= 1, "FPMultDivs"},
		{c.L1ISizeKB >= 1 && c.L1ILat >= 1, "L1I"},
		{c.L1DSizeKB >= 1 && c.L1DLat >= 1, "L1D"},
		{c.L2SizeKB >= 1 && c.L2Lat >= 1, "L2"},
		{c.MemLatFirst >= 1, "MemLatFirst"},
		{c.MemBWBytes >= 1, "MemBWBytes"},
		{c.ITLBEntries >= 1 && c.ITLBLat >= 1, "ITLB"},
		{c.DTLBEntries >= 1, "DTLB"},
		{c.PageKB >= 1, "PageKB"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("sim: invalid %s", ch.name)
		}
	}
	return nil
}

// HierarchyConfig assembles the memory-system configuration from the
// processor parameters.
func (c *Config) HierarchyConfig() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		L1I:        cache.Config{SizeBytes: c.L1ISizeKB << 10, Assoc: c.L1IAssoc, BlockBytes: c.L1IBlock},
		L1D:        cache.Config{SizeBytes: c.L1DSizeKB << 10, Assoc: c.L1DAssoc, BlockBytes: c.L1DBlock},
		L2:         cache.Config{SizeBytes: c.L2SizeKB << 10, Assoc: c.L2Assoc, BlockBytes: c.L2Block},
		L1ILatency: c.L1ILat, L1DLatency: c.L1DLat, L2Latency: c.L2Lat,
		ITLBEntries: c.ITLBEntries, ITLBAssoc: c.ITLBAssoc,
		DTLBEntries: c.DTLBEntries, DTLBAssoc: c.DTLBAssoc,
		PageBytes:   uint64(c.PageKB) << 10,
		ITLBLatency: c.ITLBLat, DTLBLatency: c.ITLBLat, // D-TLB latency coupled to I-TLB
		MemLatencyFirst: c.MemLatFirst, MemLatencyRest: c.MemLatRest(),
		MemBandwidthBytes: c.MemBWBytes,
	}
}
