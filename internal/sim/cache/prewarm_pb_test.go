package cache_test

import (
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/sim"
	"pbsim/internal/sim/cache"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// pbGeometryBits assigns each memory-hierarchy factor of Tables 6-8 to
// one bit of a 32-run full factorial. A lap's result depends only on
// the lapped structure's own geometry (and, for the L2, on both L1
// block sizes, which set the probe stride of the laps it sees), so the
// assignment gives every structure each of its low/high combinations:
// the L2's geometry crossed with both L1 block sizes (bits 0-4), each
// L1's size/associativity/block, and each TLB's entries/associativity
// with the shared page size, all on distinct bits.
var pbGeometryBits = map[string]uint{
	"L1 I-Cache Block Size":    0,
	"L1 D-Cache Block Size":    1,
	"L2 Cache Size":            2,
	"L2 Cache Associativity":   3,
	"L2 Cache Block Size":      4,
	"L1 I-Cache Size":          3,
	"L1 I-Cache Associativity": 4,
	"L1 D-Cache Size":          4,
	"L1 D-Cache Associativity": 2,
	"I-TLB Size":               1,
	"I-TLB Associativity":      2,
	"I-TLB Page Size":          3,
	"D-TLB Size":               0,
	"D-TLB Associativity":      4,
}

// TestPrewarmMatchesWalkPBGeometries checks that CPU.PrewarmMemory's
// two laps (code, then data) leave every field of the hierarchy
// bit-identical to the per-block walk, for each benchmark's code
// footprint and working set on every PB memory geometry above.
func TestPrewarmMatchesWalkPBGeometries(t *testing.T) {
	factors := sim.PBFactors()
	bit := make([]int, len(factors))
	found := 0
	for i, f := range factors {
		bit[i] = -1
		if b, ok := pbGeometryBits[f.Factor.Name]; ok {
			bit[i] = int(b)
			found++
		}
	}
	if found != len(pbGeometryBits) {
		t.Fatalf("matched %d of %d memory-hierarchy factors by name", found, len(pbGeometryBits))
	}
	var configs []cache.HierarchyConfig
	for run := 0; run < 32; run++ {
		levels := make([]pb.Level, len(factors))
		for i := range levels {
			levels[i] = pb.Low
			if bit[i] >= 0 && run>>bit[i]&1 == 1 {
				levels[i] = pb.High
			}
		}
		cfg := sim.ConfigForLevels(levels)
		configs = append(configs, cfg.HierarchyConfig())
	}
	for _, w := range workload.All() {
		code, data := w.Params.CodeFootprintBytes(), w.Params.WorkingSetBytes
		for run, hc := range configs {
			lap, err := cache.NewHierarchy(hc)
			if err != nil {
				t.Fatal(err)
			}
			walk, err := cache.NewHierarchy(hc)
			if err != nil {
				t.Fatal(err)
			}
			lap.PrewarmCode(trace.CodeBase, code)
			lap.PrewarmData(trace.DataBase, data)
			walk.WalkPrewarmCode(trace.CodeBase, code)
			walk.WalkPrewarmData(trace.DataBase, data)
			if d := cache.DiffHierarchy(lap, walk); d != "" {
				t.Fatalf("%s, geometry run %d (%+v): %s", w.Name, run, hc, d)
			}
		}
	}
}
