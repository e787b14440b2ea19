package experiment

import (
	"context"
	"testing"

	"pbsim/internal/enhance"
	"pbsim/internal/pb"
	"pbsim/internal/sim"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// Simulator contracts, checked on short windows through the taped
// stream every design row reads (trace.Generator.Replay).

const contractWarmup, contractN = 1000, 3000

// contractWorkloads are a compute-bound, a memory-bound and a
// streaming benchmark.
var contractWorkloads = []string{"gzip", "mcf", "art"}

// TestIPCNeverExceedsWidth: GIVEN every row of the X=44 foldover
// design, WHEN a workload runs through Response, THEN the measured IPC
// never exceeds the machine's decode/issue/commit width.
func TestIPCNeverExceedsWidth(t *testing.T) {
	design, err := pb.New(len(sim.Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range contractWorkloads {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		resp := Response(w, contractWarmup, contractN, enhance.Spec{})
		for r := 0; r < design.Runs(); r++ {
			cycles, err := resp(context.Background(), design.Row(r))
			if err != nil {
				t.Fatal(err)
			}
			width := sim.ConfigForLevels(design.Row(r)).Width
			if ipc := contractN / cycles; ipc > float64(width) {
				t.Errorf("%s row %d: IPC %.3f exceeds width %d", name, r, ipc, width)
			}
		}
	}
}

// tapedStats runs one configuration the way Response does and returns
// the measured window's statistics.
func tapedStats(t *testing.T, w workload.Workload, cfg sim.Config) sim.Stats {
	t.Helper()
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	gen.Replay(contractWarmup + contractN)
	cpu, err := sim.New(cfg, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	st, err := cpu.RunWithWarmup(contractWarmup, contractN)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMoreL1DWaysNeverMissMore: GIVEN a design row's machine, WHEN its
// L1D gains ways at a fixed number of sets (the LRU stack property
// says each set then holds a superset), THEN the hierarchy's L1D
// misses never rise, although the out-of-order core may issue the
// accesses in a different order on each machine.
func TestMoreL1DWaysNeverMissMore(t *testing.T) {
	design, err := pb.New(len(sim.Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range contractWorkloads {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < design.Runs(); r += 11 {
			base := sim.ConfigForLevels(design.Row(r))
			sets := base.L1DSizeKB << 10 / (base.L1DAssoc * base.L1DBlock)
			prev, prevWays := uint64(0), 0
			for _, ways := range []int{1, 2, 4, 8, 16} {
				cfg := base
				cfg.L1DAssoc = ways
				if cfg.L1DSizeKB = sets * ways * base.L1DBlock >> 10; cfg.L1DSizeKB < 1 {
					continue // below the configurable 1 KB
				}
				misses := tapedStats(t, w, cfg).L1D.Misses
				if prevWays > 0 && misses > prev {
					t.Errorf("%s row %d, %d sets: %d ways miss %d times, %d ways %d", name, r, sets, ways, misses, prevWays, prev)
				}
				prev, prevWays = misses, ways
			}
		}
	}
}

// TestAlwaysHitL2StillReachesDRAM pins a counterexample to "an
// always-hit hierarchy makes zero DRAM accesses". GIVEN gzip on the
// largest PB L2 (8 MiB, 8-way), which holds its 96 KiB working set and
// its code many times over, prewarmed by PrewarmMemory; WHEN the taped
// stream runs through the warmup and the measured window; THEN the
// window makes one DRAM access, not zero. The data side always hits:
// every data address lies inside the prewarmed working set. The miss
// is on the code side: PrewarmMemory warms the code footprint that
// Params.CodeFootprintBytes estimates (blocks × mean block length),
// and the stream's code runs past it.
func TestAlwaysHitL2StillReachesDRAM(t *testing.T) {
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.L2SizeKB, cfg.L2Assoc = 8192, 8
	if st := tapedStats(t, w, cfg); st.DRAMAccesses != 1 {
		t.Errorf("gzip on an 8 MiB 8-way L2: %d DRAM accesses in the measured window, want the pinned 1", st.DRAMAccesses)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	var codeEnd, dataEnd uint64
	for i := 0; i < contractWarmup+contractN; i++ {
		in := gen.Next()
		codeEnd = max(codeEnd, in.PC+4)
		if in.Class.IsMem() {
			dataEnd = max(dataEnd, in.Addr+8)
		}
	}
	if warmed := trace.DataBase + w.Params.WorkingSetBytes; dataEnd > warmed {
		t.Errorf("data reaches %#x, past the prewarmed working set's end %#x", dataEnd, warmed)
	}
	if warmed := trace.CodeBase + w.Params.CodeFootprintBytes(); codeEnd <= warmed {
		t.Errorf("code ends at %#x, inside the prewarmed footprint ending at %#x: the DRAM access has another cause", codeEnd, warmed)
	}
}

// TestBiggerROBNeverSlower: GIVEN each benchmark on the default
// machine, WHEN its reorder buffer grows 8 → 16 → 32 → 64 → 192 (the
// load-store queue grows with it, at the default LSQ ratio), THEN the
// measured window never takes more cycles. This is checked, not
// derived: a bigger window holds every instruction a smaller one does,
// but the memory system sees their accesses in a different order.
func TestBiggerROBNeverSlower(t *testing.T) {
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prev, prevROB := int64(0), 0
		for _, rob := range []int{8, 16, 32, 64, 192} {
			cfg := sim.Default()
			cfg.ROBEntries = rob
			cycles := tapedStats(t, w, cfg).Cycles
			if prevROB > 0 && cycles > prev {
				t.Errorf("%s: ROB %d takes %d cycles, ROB %d %d", name, rob, cycles, prevROB, prev)
			}
			prev, prevROB = cycles, rob
		}
	}
}
